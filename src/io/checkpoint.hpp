// Binary checkpointing of the LBM state. Long dispersion runs (the paper
// averages over 500 steps and spins the city flow up for 1000) need
// restartable state: this stores the full distribution set, flags and
// boundary configuration, and restores a bit-identical lattice.
//
// Integrity (format v4): every file is an envelope of
//   [magic][u32 version][u64 body_size][u32 body_crc32][body]
// written to a temporary sibling and committed with an atomic rename, so
// a crash mid-write leaves either the old file or none. Loading verifies
// magic, version and that body_size is exactly the rest of the file and
// what the recorded dims need — all before anything is allocated — then
// streams the body in chunks straight into the lattice, CRCing each
// chunk as it lands, and accepts the result only if the whole-body CRC32
// matches. Any mismatch throws gc::Error — a flipped byte, a half-written
// file or a patched size field can never be mistaken for valid state.
//
// The header records the StorageMode the saved simulation was running
// (the distribution planes themselves are always serialized in the
// canonical natural order, so the payload is storage-agnostic — sparse
// lattices are expanded to natural planes on save and recompacted on
// load). Only v4 loads: v2 (no storage byte) and v3 (no Sparse) files
// throw gc::Error like any other unreadable file.
#pragma once

#include <string>
#include <vector>

#include "lbm/lattice.hpp"

namespace gc::io {

/// Writes the lattice (current buffer, flags, face BCs, inlet) to `path`
/// via tmp-file + rename; the file carries a CRC32 of its body.
void save_checkpoint(const std::string& path, const lbm::Lattice& lat);

/// Reads a checkpoint; returns a lattice equal to the saved one
/// (distributions bit-identical). Throws on malformed, truncated or
/// corrupted files. The on-disk format is storage-agnostic (planes are
/// always in the canonical natural order). The single-argument form
/// materializes the lattice in the StorageMode recorded in the header —
/// callers no longer guess the mode; the overload forces a specific
/// backend (e.g. to restore a DoubleBuffer file straight into an AA
/// simulation).
lbm::Lattice load_checkpoint(const std::string& path);
lbm::Lattice load_checkpoint(const std::string& path, lbm::StorageMode mode);

/// Header facts of a checkpoint, without materializing the lattice.
/// (The envelope is still fully CRC-validated — a checkpoint is small
/// next to the simulation it snapshots.)
struct CheckpointInfo {
  Int3 dim{};
  lbm::StorageMode storage = lbm::StorageMode::DoubleBuffer;
  u32 version = 0;
};
CheckpointInfo read_checkpoint_info(const std::string& path);

/// The commit record of a distributed (per-rank) checkpoint: written
/// last, after every rank file landed, so its presence implies a complete
/// consistent snapshot. `rank_files` are relative to the manifest's
/// directory, indexed by rank.
struct ClusterManifest {
  i64 step = 0;            ///< global step count the snapshot was taken at
  Int3 grid{1, 1, 1};      ///< node-grid dimensions
  Int3 lattice_dim{};      ///< global lattice dimensions
  std::vector<std::string> rank_files;
};

/// Writes/reads a manifest with the same envelope integrity guarantees
/// as the lattice checkpoints.
void save_manifest(const std::string& path, const ClusterManifest& m);
ClusterManifest load_manifest(const std::string& path);

}  // namespace gc::io
