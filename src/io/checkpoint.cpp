#include "io/checkpoint.hpp"

#include <cstdio>
#include <cstring>
#include <fstream>

#include "util/checksum.hpp"

namespace gc::io {

namespace {
constexpr char kMagic[4] = {'G', 'C', 'L', 'B'};
// v4: u8 StorageMode (DoubleBuffer, AA or Sparse) after the velocity
// count. Older files (v2 had no storage byte, v3 no Sparse) are rejected;
// a FlowCache entry in such a format reads as a miss and is recomputed.
constexpr u32 kMinVersion = 4;
constexpr u32 kVersion = 4;
constexpr char kManifestMagic[4] = {'G', 'C', 'M', 'F'};
constexpr u32 kManifestVersion = 1;

/// Serializes the body into memory so the envelope can carry its exact
/// size and CRC32 up front.
class BodyWriter {
 public:
  template <typename T>
  void pod(const T& v) {
    bytes(&v, sizeof(T));
  }
  void bytes(const void* p, std::size_t n) {
    buf_.append(static_cast<const char*>(p), n);
  }
  const std::string& str() const { return buf_; }

 private:
  std::string buf_;
};

/// Cursor over a fully validated body; every read is bounds-checked so a
/// malformed length field cannot run off the end.
class BodyReader {
 public:
  explicit BodyReader(const std::string& buf) : buf_(buf) {}
  template <typename T>
  void pod(T& v) {
    bytes(&v, sizeof(T));
  }
  void bytes(void* p, std::size_t n) {
    GC_CHECK_MSG(pos_ + n <= buf_.size(), "truncated checkpoint body");
    std::memcpy(p, buf_.data() + pos_, n);
    pos_ += n;
  }
  bool at_end() const { return pos_ == buf_.size(); }

 private:
  const std::string& buf_;
  std::size_t pos_ = 0;
};

/// Writes [magic][version][body_size][crc][body] to `path + ".tmp"` and
/// commits with an atomic rename.
void write_envelope(const std::string& path, const char magic[4], u32 version,
                    const std::string& body) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    GC_CHECK_MSG(out.good(), "cannot open " << tmp << " for writing");
    out.write(magic, 4);
    out.write(reinterpret_cast<const char*>(&version), sizeof(version));
    const u64 size = body.size();
    out.write(reinterpret_cast<const char*>(&size), sizeof(size));
    const u32 crc = crc32(body.data(), body.size());
    out.write(reinterpret_cast<const char*>(&crc), sizeof(crc));
    out.write(body.data(), static_cast<std::streamsize>(body.size()));
    out.flush();
    if (!out.good()) {
      out.close();
      std::remove(tmp.c_str());
      GC_CHECK_MSG(false, "write failure on " << tmp);
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    GC_CHECK_MSG(false, "cannot rename " << tmp << " to " << path);
  }
}

/// Reads and fully validates an envelope: magic, version (within
/// [min_version, max_version]), exact body size, CRC32. Returns the body
/// and, via `version_out`, the version actually found.
std::string read_envelope(const std::string& path, const char magic[4],
                          u32 min_version, u32 max_version,
                          const char* what, u32* version_out = nullptr) {
  std::ifstream in(path, std::ios::binary);
  GC_CHECK_MSG(in.good(), "cannot open " << path);

  char m[4];
  in.read(m, sizeof(m));
  GC_CHECK_MSG(in.good() && std::memcmp(m, magic, 4) == 0,
               path << " is not a gpucluster " << what);
  u32 version = 0;
  in.read(reinterpret_cast<char*>(&version), sizeof(version));
  GC_CHECK_MSG(in.good() && version >= min_version && version <= max_version,
               "unsupported " << what << " version " << version);
  if (version_out) *version_out = version;
  u64 size = 0;
  u32 crc = 0;
  in.read(reinterpret_cast<char*>(&size), sizeof(size));
  in.read(reinterpret_cast<char*>(&crc), sizeof(crc));
  GC_CHECK_MSG(in.good(), "truncated " << what << " header in " << path);

  std::string body(static_cast<std::size_t>(size), '\0');
  in.read(body.data(), static_cast<std::streamsize>(size));
  GC_CHECK_MSG(static_cast<u64>(in.gcount()) == size,
               path << " is truncated: body has " << in.gcount()
                    << " of " << size << " bytes");
  in.get();
  GC_CHECK_MSG(in.eof(), path << " has trailing bytes after the body");
  GC_CHECK_MSG(crc32(body.data(), body.size()) == crc,
               path << " failed its CRC32 check (corrupted " << what << ")");
  return body;
}
}  // namespace

void save_checkpoint(const std::string& path, const lbm::Lattice& lat) {
  BodyWriter body;
  const Int3 d = lat.dim();
  body.pod(d.x);
  body.pod(d.y);
  body.pod(d.z);
  body.pod(static_cast<u32>(lbm::Q));
  // The storage backend the saved simulation was running. The planes
  // below stay in the canonical natural order regardless.
  body.pod(static_cast<u8>(lat.storage_mode()));

  for (int face = 0; face < 6; ++face) {
    body.pod(static_cast<u8>(lat.face_bc(static_cast<lbm::Face>(face))));
  }
  body.pod(lat.inlet_density());
  const Vec3 uin = lat.inlet_velocity();
  body.pod(uin.x);
  body.pod(uin.y);
  body.pod(uin.z);

  const i64 n = lat.num_cells();
  body.bytes(lat.flags().data(), static_cast<std::size_t>(n));
  if (lat.plane_layout_natural()) {
    for (int i = 0; i < lbm::Q; ++i) {
      body.bytes(lat.plane_ptr(i), static_cast<std::size_t>(n) * sizeof(Real));
    }
  } else {
    // AA lattice in a relocated phase (e.g. a snapshot at odd parity):
    // gather each plane through the accessors so the file stays in the
    // canonical natural order — the on-disk format is storage-agnostic.
    std::vector<Real> plane(static_cast<std::size_t>(n));
    for (int i = 0; i < lbm::Q; ++i) {
      for (i64 c = 0; c < n; ++c) {
        plane[static_cast<std::size_t>(c)] = lat.f(i, c);
      }
      body.bytes(plane.data(), static_cast<std::size_t>(n) * sizeof(Real));
    }
  }

  body.pod(static_cast<u32>(lat.curved_links().size()));
  for (const lbm::CurvedLink& link : lat.curved_links()) {
    body.pod(link.cell);
    body.pod(link.dir);
    body.pod(link.q);
  }
  write_envelope(path, kMagic, kVersion, body.str());
}

namespace {

/// Reads the dims / velocity-count / storage-mode header prefix.
lbm::StorageMode read_header_prefix(BodyReader& body, Int3* d) {
  body.pod(d->x);
  body.pod(d->y);
  body.pod(d->z);
  u32 q;
  body.pod(q);
  GC_CHECK_MSG(q == static_cast<u32>(lbm::Q),
               "checkpoint has " << q << " velocities, expected " << lbm::Q);
  u8 mode;
  body.pod(mode);
  GC_CHECK_MSG(mode <= static_cast<u8>(lbm::StorageMode::Sparse),
               "invalid storage mode in checkpoint");
  return static_cast<lbm::StorageMode>(mode);
}

lbm::Lattice load_checkpoint_impl(const std::string& path,
                                  const lbm::StorageMode* forced_mode) {
  const std::string raw =
      read_envelope(path, kMagic, kMinVersion, kVersion, "checkpoint");
  BodyReader body(raw);

  Int3 d;
  const lbm::StorageMode recorded = read_header_prefix(body, &d);
  const lbm::StorageMode mode = forced_mode ? *forced_mode : recorded;

  // A fresh DoubleBuffer/AA lattice is in the natural layout (AA phase
  // 0), so the planes can be read straight into plane_ptr. A sparse
  // target has no dense planes at all — load through DoubleBuffer and
  // convert once the flags (which define the compact layout) are final.
  const bool sparse_target = mode == lbm::StorageMode::Sparse;
  lbm::Lattice lat(d, sparse_target ? lbm::StorageMode::DoubleBuffer : mode);
  for (int face = 0; face < 6; ++face) {
    u8 bc;
    body.pod(bc);
    GC_CHECK_MSG(bc <= static_cast<u8>(lbm::FaceBc::FreeSlip),
                 "invalid face BC in checkpoint");
    lat.set_face_bc(static_cast<lbm::Face>(face),
                    static_cast<lbm::FaceBc>(bc));
  }
  Real rho;
  Vec3 uin;
  body.pod(rho);
  body.pod(uin.x);
  body.pod(uin.y);
  body.pod(uin.z);
  lat.set_inlet(rho, uin);

  const i64 n = lat.num_cells();
  std::vector<u8> flags(static_cast<std::size_t>(n));
  body.bytes(flags.data(), static_cast<std::size_t>(n));
  for (i64 c = 0; c < n; ++c) {
    const u8 t = flags[static_cast<std::size_t>(c)];
    GC_CHECK_MSG(t <= static_cast<u8>(lbm::CellType::Outflow),
                 "invalid cell flag in checkpoint");
    lat.set_flag(c, static_cast<lbm::CellType>(t));
  }
  for (int i = 0; i < lbm::Q; ++i) {
    body.bytes(lat.plane_ptr(i), static_cast<std::size_t>(n) * sizeof(Real));
  }

  u32 num_links;
  body.pod(num_links);
  for (u32 k = 0; k < num_links; ++k) {
    lbm::CurvedLink link;
    body.pod(link.cell);
    body.pod(link.dir);
    body.pod(link.q);
    lat.add_curved_link(link);
  }
  GC_CHECK_MSG(body.at_end(), "checkpoint body has trailing bytes");
  if (sparse_target) lat.convert_storage(lbm::StorageMode::Sparse);
  return lat;
}

}  // namespace

lbm::Lattice load_checkpoint(const std::string& path) {
  return load_checkpoint_impl(path, nullptr);
}

lbm::Lattice load_checkpoint(const std::string& path, lbm::StorageMode mode) {
  return load_checkpoint_impl(path, &mode);
}

CheckpointInfo read_checkpoint_info(const std::string& path) {
  CheckpointInfo info;
  const std::string raw =
      read_envelope(path, kMagic, kMinVersion, kVersion, "checkpoint",
                    &info.version);
  BodyReader body(raw);
  info.storage = read_header_prefix(body, &info.dim);
  return info;
}

void save_manifest(const std::string& path, const ClusterManifest& m) {
  BodyWriter body;
  body.pod(m.step);
  body.pod(m.grid.x);
  body.pod(m.grid.y);
  body.pod(m.grid.z);
  body.pod(m.lattice_dim.x);
  body.pod(m.lattice_dim.y);
  body.pod(m.lattice_dim.z);
  body.pod(static_cast<u32>(m.rank_files.size()));
  for (const std::string& f : m.rank_files) {
    body.pod(static_cast<u32>(f.size()));
    body.bytes(f.data(), f.size());
  }
  write_envelope(path, kManifestMagic, kManifestVersion, body.str());
}

ClusterManifest load_manifest(const std::string& path) {
  const std::string raw = read_envelope(path, kManifestMagic,
                                        kManifestVersion, kManifestVersion,
                                        "manifest");
  BodyReader body(raw);
  ClusterManifest m;
  body.pod(m.step);
  body.pod(m.grid.x);
  body.pod(m.grid.y);
  body.pod(m.grid.z);
  body.pod(m.lattice_dim.x);
  body.pod(m.lattice_dim.y);
  body.pod(m.lattice_dim.z);
  u32 ranks;
  body.pod(ranks);
  GC_CHECK_MSG(ranks >= 1 && ranks <= 1u << 20, "implausible rank count");
  for (u32 r = 0; r < ranks; ++r) {
    u32 len;
    body.pod(len);
    GC_CHECK_MSG(len <= 4096, "implausible rank file name length");
    std::string name(len, '\0');
    body.bytes(name.data(), len);
    m.rank_files.push_back(std::move(name));
  }
  GC_CHECK_MSG(body.at_end(), "manifest body has trailing bytes");
  return m;
}

}  // namespace gc::io
