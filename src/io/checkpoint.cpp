#include "io/checkpoint.hpp"

#include <algorithm>
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

/// Streaming reader of one envelope. The constructor validates magic,
/// version and that `body_size` is exactly the length of the rest of the
/// file, before anything is allocated. Reads then copy the body in chunks
/// straight into the caller's storage and CRC each chunk while it is
/// still in cache; every read is bounds-checked so a malformed length
/// field cannot run off the end. finish() throws unless the whole body
/// was consumed and its CRC32 matches.
class EnvelopeReader {
 public:
  EnvelopeReader(const std::string& path, const char magic[4],
                 u32 min_version, u32 max_version, const char* what)
      : in_(path, std::ios::binary), path_(path), what_(what) {
    GC_CHECK_MSG(in_.good(), "cannot open " << path);
    in_.seekg(0, std::ios::end);
    const std::streamoff file_len = in_.tellg();
    in_.seekg(0, std::ios::beg);
    GC_CHECK_MSG(in_.good() && file_len >= 0, "cannot size " << path);

    char m[4];
    in_.read(m, sizeof(m));
    GC_CHECK_MSG(in_.good() && std::memcmp(m, magic, 4) == 0,
                 path << " is not a gpucluster " << what);
    in_.read(reinterpret_cast<char*>(&version_), sizeof(version_));
    GC_CHECK_MSG(in_.good() && version_ >= min_version &&
                     version_ <= max_version,
                 "unsupported " << what << " version " << version_);
    in_.read(reinterpret_cast<char*>(&size_), sizeof(size_));
    in_.read(reinterpret_cast<char*>(&crc_expected_), sizeof(crc_expected_));
    GC_CHECK_MSG(in_.good(), "truncated " << what << " header in " << path);

    const u64 available = static_cast<u64>(file_len) - kHeaderBytes;
    GC_CHECK_MSG(size_ <= available, path << " is truncated: body has "
                                          << available << " of " << size_
                                          << " bytes");
    GC_CHECK_MSG(size_ == available,
                 path << " has trailing bytes after the body");
  }

  u32 version() const { return version_; }
  /// Body bytes not yet read.
  u64 remaining() const { return size_ - pos_; }

  template <typename T>
  void pod(T& v) {
    bytes(&v, sizeof(T));
  }
  void bytes(void* dst, std::size_t n) {
    GC_CHECK_MSG(n <= remaining(), "truncated " << what_ << " body");
    auto* p = static_cast<char*>(dst);
    while (n > 0) {
      const std::size_t k = std::min(n, kChunkBytes);
      in_.read(p, static_cast<std::streamsize>(k));
      GC_CHECK_MSG(static_cast<std::size_t>(in_.gcount()) == k,
                   path_ << " ended early: " << what_ << " body short of "
                         << size_ << " bytes");
      crc_ = crc32(p, k, crc_);
      pos_ += k;
      p += k;
      n -= k;
    }
  }
  /// Reads (and CRCs) the rest of the body without keeping it.
  void skip_rest() {
    std::vector<char> chunk(static_cast<std::size_t>(
        std::min<u64>(remaining(), kChunkBytes)));
    while (remaining() > 0) {
      bytes(chunk.data(),
            static_cast<std::size_t>(std::min<u64>(remaining(), kChunkBytes)));
    }
  }
  void finish() const {
    GC_CHECK_MSG(remaining() == 0, what_ << " body has trailing bytes");
    GC_CHECK_MSG(crc_ == crc_expected_,
                 path_ << " failed its CRC32 check (corrupted " << what_
                       << ")");
  }

 private:
  static constexpr u64 kHeaderBytes = 4 + 4 + 8 + 4;
  /// Small enough that a chunk is still in cache when it is CRCed.
  static constexpr std::size_t kChunkBytes = std::size_t(64) << 10;

  std::ifstream in_;
  std::string path_;
  const char* what_;
  u32 version_ = 0;
  u64 size_ = 0;
  u32 crc_expected_ = 0;
  u64 pos_ = 0;
  u32 crc_ = 0;
};
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

/// Bytes of body after the dims / velocity-count / storage-mode prefix
/// that do not scale with the cell count: face BCs, inlet state, link
/// count. Each cell adds a flag byte and Q distributions; each curved
/// link adds cell, dir and q.
constexpr u64 kFixedTailBytes = 6 + 4 * sizeof(Real) + sizeof(u32);
constexpr u64 kCellBytes = 1 + lbm::Q * sizeof(Real);
constexpr u64 kLinkBytes = sizeof(i64) + sizeof(int) + sizeof(Real);

/// Reads the dims / velocity-count / storage-mode header prefix and
/// checks that the body left is exactly what those dims need plus whole
/// curved links — before the caller allocates a lattice of that size.
lbm::StorageMode read_header_prefix(EnvelopeReader& body, Int3* d) {
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

  GC_CHECK_MSG(d->x > 0 && d->y > 0 && d->z > 0,
               "invalid checkpoint dimensions " << *d);
  const u64 left = body.remaining();
  GC_CHECK_MSG(left >= kFixedTailBytes, "truncated checkpoint body");
  // Divisions, not products: the dims are untrusted and may overflow.
  const u64 max_cells = (left - kFixedTailBytes) / kCellBytes;
  const u64 x = static_cast<u64>(d->x);
  const u64 y = static_cast<u64>(d->y);
  const u64 z = static_cast<u64>(d->z);
  GC_CHECK_MSG(x <= max_cells && y <= max_cells / x &&
                   z <= max_cells / (x * y),
               "checkpoint dimensions " << *d << " need more than its "
                                        << left << "-byte body");
  const u64 links_bytes = left - kFixedTailBytes - x * y * z * kCellBytes;
  GC_CHECK_MSG(links_bytes % kLinkBytes == 0,
               "checkpoint body size does not match its dimensions");
  return static_cast<lbm::StorageMode>(mode);
}

lbm::Lattice load_checkpoint_impl(const std::string& path,
                                  const lbm::StorageMode* forced_mode) {
  EnvelopeReader body(path, kMagic, kMinVersion, kVersion, "checkpoint");

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
  GC_CHECK_MSG(body.remaining() == u64(num_links) * kLinkBytes,
               "checkpoint curved-link count does not match its body");
  for (u32 k = 0; k < num_links; ++k) {
    lbm::CurvedLink link;
    body.pod(link.cell);
    body.pod(link.dir);
    body.pod(link.q);
    lat.add_curved_link(link);
  }
  body.finish();
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
  EnvelopeReader body(path, kMagic, kMinVersion, kVersion, "checkpoint");
  info.version = body.version();
  info.storage = read_header_prefix(body, &info.dim);
  body.skip_rest();
  body.finish();
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
  EnvelopeReader body(path, kManifestMagic, kManifestVersion,
                      kManifestVersion, "manifest");
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
  // Each rank entry holds at least its u32 name length.
  GC_CHECK_MSG(ranks >= 1 && ranks <= 1u << 20 &&
                   ranks <= body.remaining() / sizeof(u32),
               "implausible rank count");
  for (u32 r = 0; r < ranks; ++r) {
    u32 len;
    body.pod(len);
    GC_CHECK_MSG(len <= 4096 && len <= body.remaining(),
                 "implausible rank file name length");
    std::string name(len, '\0');
    body.bytes(name.data(), len);
    m.rank_files.push_back(std::move(name));
  }
  body.finish();
  return m;
}

}  // namespace gc::io
