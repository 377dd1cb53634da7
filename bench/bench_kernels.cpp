// Kernel microbenchmarks (google-benchmark): host LBM collision,
// streaming, fused step, MRT, thermal update, GPU-simulated step, tracer
// hop, CRC32 (checkpoints and message envelopes), and the pack/unpack
// paths of the border exchange — the memory-bound hot paths in all three
// storage modes (double-buffered, in-place AA, and the sparse fluid-index
// layout).
// `--trace out.json` additionally runs a short instrumented Solver +
// ParallelLbm session and writes the Chrome-trace JSON plus its CSV
// sibling; `--json out.json` writes machine-readable measured records
// (ms/step, MLUPS, analytic bytes/step, storage mode, dims) for both
// storage modes — the BENCH_kernels.json snapshot is produced this way.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "core/border_exchange.hpp"
#include "core/parallel_lbm.hpp"
#include "core/scaling_study.hpp"
#include "gpulbm/gpu_solver.hpp"
#include "io/bench_json.hpp"
#include "io/csv.hpp"
#include "lbm/collision.hpp"
#include "lbm/macroscopic.hpp"
#include "lbm/mrt.hpp"
#include "lbm/solver.hpp"
#include "lbm/stream.hpp"
#include "lbm/thermal.hpp"
#include "obs/export.hpp"
#include "tracer/tracer.hpp"
#include "util/checksum.hpp"
#include "util/rng.hpp"

namespace {

using namespace gc;

lbm::Lattice make_lattice(
    int n, lbm::StorageMode mode = lbm::StorageMode::DoubleBuffer) {
  lbm::Lattice lat(Int3{n, n, n}, mode);
  lat.init_equilibrium(Real(1), Vec3{0.05f, 0.02f, 0.01f});
  return lat;
}

void BM_CollideBgk(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  lbm::Lattice lat = make_lattice(n);
  for (auto _ : state) {
    lbm::collide_bgk(lat, lbm::BgkParams{Real(0.8), Vec3{}});
  }
  state.SetItemsProcessed(state.iterations() * lat.num_cells());
}
BENCHMARK(BM_CollideBgk)->Arg(32)->Arg(64)->Arg(80);

void BM_Stream(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  lbm::Lattice lat = make_lattice(n);
  for (auto _ : state) {
    lbm::stream(lat);
  }
  state.SetItemsProcessed(state.iterations() * lat.num_cells());
}
BENCHMARK(BM_Stream)->Arg(32)->Arg(64)->Arg(80);

void BM_FusedStreamCollide(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  lbm::Lattice lat = make_lattice(n);
  for (auto _ : state) {
    lbm::fused_stream_collide(lat, lbm::BgkParams{Real(0.8), Vec3{}});
  }
  state.SetItemsProcessed(state.iterations() * lat.num_cells());
}
BENCHMARK(BM_FusedStreamCollide)->Arg(32)->Arg(64)->Arg(80);

// Span-path streaming on a mixed domain: inlet/outflow faces plus solid
// obstacles, so the precomputed classification carries bulk spans, a slow
// boundary minority, and solid runs (the realistic urban-lattice shape).
// Split path on the in-place AA lattice: the advancing collision performs
// the slot swap, streaming is a parity flip + boundary fixups — half the
// distribution traffic and half the footprint of the DB split path.
void BM_CollideBgkAa(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  lbm::Lattice lat = make_lattice(n, lbm::StorageMode::AA);
  for (auto _ : state) {
    lbm::collide_bgk(lat, lbm::BgkParams{Real(0.8), Vec3{}});
    lbm::stream(lat);  // keep the collide/stream alternation valid
  }
  state.SetItemsProcessed(state.iterations() * lat.num_cells());
}
BENCHMARK(BM_CollideBgkAa)->Arg(32)->Arg(64)->Arg(80);

void BM_FusedStreamCollideAa(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  lbm::Lattice lat = make_lattice(n, lbm::StorageMode::AA);
  for (auto _ : state) {
    lbm::fused_stream_collide(lat, lbm::BgkParams{Real(0.8), Vec3{}});
  }
  state.SetItemsProcessed(state.iterations() * lat.num_cells());
}
BENCHMARK(BM_FusedStreamCollideAa)->Arg(32)->Arg(64)->Arg(80);

// Sparse fluid-index storage on a solid-laden domain (same obstacle as
// BM_StreamSpans): compact buffers over the non-solid cells only, so both
// passes touch ~f bytes where f is the fluid fraction — solid cells cost
// neither bandwidth nor compute.
void BM_FusedStreamCollideSparse(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  lbm::Lattice lat = make_lattice(n);
  lat.set_face_bc(lbm::FACE_XMIN, lbm::FaceBc::Inlet);
  lat.set_face_bc(lbm::FACE_XMAX, lbm::FaceBc::Outflow);
  lat.set_face_bc(lbm::FACE_ZMIN, lbm::FaceBc::Wall);
  lat.set_inlet(Real(1), Vec3{0.05f, 0, 0});
  lat.fill_solid_box(Int3{n / 4, n / 4, 0}, Int3{n / 2, n / 2, n / 2});
  lat.convert_storage(lbm::StorageMode::Sparse);
  lat.cell_class();
  for (auto _ : state) {
    lbm::fused_stream_collide(lat, lbm::BgkParams{Real(0.8), Vec3{}});
  }
  state.SetItemsProcessed(state.iterations() * lat.sparse_active_cells());
}
BENCHMARK(BM_FusedStreamCollideSparse)->Arg(64)->Arg(80);

void BM_StreamSpans(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  lbm::Lattice lat = make_lattice(n);
  lat.set_face_bc(lbm::FACE_XMIN, lbm::FaceBc::Inlet);
  lat.set_face_bc(lbm::FACE_XMAX, lbm::FaceBc::Outflow);
  lat.set_face_bc(lbm::FACE_ZMIN, lbm::FaceBc::Wall);
  lat.set_inlet(Real(1), Vec3{0.05f, 0, 0});
  lat.fill_solid_box(Int3{n / 4, n / 4, 0}, Int3{n / 2, n / 2, n / 2});
  lat.cell_class();  // classification built outside the timed loop
  for (auto _ : state) {
    lbm::stream(lat);
  }
  state.SetItemsProcessed(state.iterations() * lat.num_cells());
}
BENCHMARK(BM_StreamSpans)->Arg(64)->Arg(80);

// Pooled fused stream+collide: the fastest host path. The second argument
// is the pool size, to show scaling with threads.
void BM_FusedPooled(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  ThreadPool pool(static_cast<std::size_t>(state.range(1)));
  lbm::Lattice lat = make_lattice(n);
  lat.cell_class();
  for (auto _ : state) {
    lbm::fused_stream_collide(lat, lbm::BgkParams{Real(0.8), Vec3{}},
                              lbm::StepContext{&pool, nullptr, 0});
  }
  state.SetItemsProcessed(state.iterations() * lat.num_cells());
}
BENCHMARK(BM_FusedPooled)
    ->Args({80, 1})
    ->Args({80, 2})
    ->Args({80, 4})
    ->Args({80, 8})
    ->UseRealTime();

// Full classification rebuild (the one-time O(cells x 18) pass the
// per-step kernels no longer pay). set_flag dirties, cell_class rebuilds.
void BM_ClassificationRebuild(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  lbm::Lattice lat = make_lattice(n);
  lat.fill_solid_box(Int3{n / 4, n / 4, 0}, Int3{n / 2, n / 2, n / 2});
  for (auto _ : state) {
    lat.set_flag(0, lbm::CellType::Fluid);  // mark dirty, same value
    benchmark::DoNotOptimize(&lat.cell_class());
  }
  state.SetItemsProcessed(state.iterations() * lat.num_cells());
}
BENCHMARK(BM_ClassificationRebuild)->Arg(80);

void BM_CollideMrt(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  lbm::Lattice lat = make_lattice(n);
  const lbm::MrtParams p = lbm::MrtParams::standard(Real(0.8));
  for (auto _ : state) {
    lbm::collide_mrt(lat, p);
  }
  state.SetItemsProcessed(state.iterations() * lat.num_cells());
}
BENCHMARK(BM_CollideMrt)->Arg(32);

void BM_ThermalStep(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  lbm::Lattice lat = make_lattice(n);
  lbm::ThermalParams tp;
  tp.kappa = Real(0.1);
  lbm::ThermalField T(lat.dim(), tp);
  std::vector<Vec3> u(static_cast<std::size_t>(lat.num_cells()),
                      Vec3{0.05f, 0, 0});
  for (auto _ : state) {
    T.step(lat, u);
  }
  state.SetItemsProcessed(state.iterations() * lat.num_cells());
}
BENCHMARK(BM_ThermalStep)->Arg(32);

void BM_GpuSimStep(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  lbm::Lattice lat = make_lattice(n);
  gpusim::GpuDevice dev(gpusim::GpuSpec::geforce_fx5800_ultra(),
                        gpusim::BusSpec::agp8x());
  gpulbm::GpuLbmSolver gpu(dev, lat, Real(0.8));
  for (auto _ : state) {
    gpu.step();
  }
  state.SetItemsProcessed(state.iterations() * lat.num_cells());
}
BENCHMARK(BM_GpuSimStep)->Arg(16);

void BM_BorderPackFace(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const core::Decomposition3 d(Int3{2 * n, n, n},
                               netsim::NodeGrid{Int3{2, 1, 1}});
  const core::LocalDomain ld = core::LocalDomain::make(d, 0);
  lbm::Lattice lat(ld.local_dim());
  lat.init_equilibrium(Real(1), Vec3{0.05f, 0, 0});
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::pack_face(lat, ld, 1));
  }
  state.SetItemsProcessed(state.iterations() * n * n * 5);
}
BENCHMARK(BM_BorderPackFace)->Arg(80);

void BM_TracerStep(benchmark::State& state) {
  lbm::Lattice lat = make_lattice(32);
  tracer::TracerCloud cloud;
  cloud.release(Int3{16, 16, 16}, 10000);
  for (auto _ : state) {
    cloud.step(lat);
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_TracerStep);

/// CRC32 throughput on one urban_step border face (128 KiB) and one
/// service-flow checkpoint (11 MiB).
void BM_Crc32(benchmark::State& state) {
  std::vector<unsigned char> buf(static_cast<std::size_t>(state.range(0)));
  Rng rng(3);
  for (unsigned char& b : buf) b = static_cast<unsigned char>(rng.next_u64());
  for (auto _ : state) {
    benchmark::DoNotOptimize(crc32(buf.data(), buf.size()));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<i64>(buf.size()));
}
BENCHMARK(BM_Crc32)->Arg(128 << 10)->Arg(11 << 20);

void BM_Moments(benchmark::State& state) {
  lbm::Lattice lat = make_lattice(48);
  std::vector<Vec3> u;
  for (auto _ : state) {
    lbm::compute_velocity_field(lat, u);
    benchmark::DoNotOptimize(u.data());
  }
  state.SetItemsProcessed(state.iterations() * lat.num_cells());
}
BENCHMARK(BM_Moments);

// Short instrumented session: a fused serial Solver run and a 2x2x1
// ParallelLbm run share one recorder, so the artifact holds single-node
// spans (tid 0) next to per-rank spans and the mpi.* counters.
void run_traced_session(const std::string& trace_path) {
  obs::TraceRecorder rec;

  lbm::SolverConfig scfg;
  scfg.fused = true;
  scfg.trace = &rec;
  lbm::Solver solver(Int3{48, 48, 48}, scfg);
  solver.lattice().init_equilibrium(Real(1), Vec3{0.05f, 0.02f, 0.01f});
  const obs::RunStats serial = solver.run(5);

  lbm::Lattice global(Int3{32, 32, 16});
  global.set_face_bc(lbm::FACE_XMIN, lbm::FaceBc::Inlet);
  global.set_face_bc(lbm::FACE_XMAX, lbm::FaceBc::Outflow);
  global.set_face_bc(lbm::FACE_YMIN, lbm::FaceBc::Wall);
  global.set_face_bc(lbm::FACE_YMAX, lbm::FaceBc::Wall);
  global.set_face_bc(lbm::FACE_ZMIN, lbm::FaceBc::Wall);
  global.set_face_bc(lbm::FACE_ZMAX, lbm::FaceBc::FreeSlip);
  global.set_inlet(Real(1), Vec3{0.05f, 0, 0});
  global.init_equilibrium(Real(1), Vec3{0.05f, 0, 0});
  core::ParallelConfig pcfg;
  pcfg.grid = netsim::NodeGrid{Int3{2, 2, 1}};
  pcfg.trace = &rec;
  core::ParallelLbm par(global, pcfg);
  const obs::RunStats parallel = par.run(5);

  obs::write_chrome_trace(trace_path, rec);
  const std::string csv_path = obs::csv_sibling_path(trace_path);
  io::write_csv(csv_path, obs::trace_table(rec));
  std::printf(
      "traced session: serial %lld steps %.2f ms, 2x2x1 parallel %lld steps "
      "%.2f ms (%lld MPI messages)\nwrote %s and %s\n",
      static_cast<long long>(serial.steps), serial.wall_ms,
      static_cast<long long>(parallel.steps), parallel.wall_ms,
      static_cast<long long>(rec.counter("mpi.messages")), trace_path.c_str(),
      csv_path.c_str());
}

// Measured-mode comparison of the two storage backends on the real host
// kernels, written as machine-readable records. The 100^3 AA record is
// the footprint headline: ~2x the cells of the 80^3 sub-domain in less
// distribution memory than the 80^3 double-buffered lattice.
void run_json_report(const std::string& json_path) {
  ThreadPool& pool = ThreadPool::global();
  std::vector<io::BenchRecord> records;
  auto measure = [&](const char* name, Int3 dim, lbm::StorageMode mode,
                     bool fused, ThreadPool* p) {
    core::MeasureOptions opt;
    opt.fused = fused;
    opt.pool = p;
    opt.storage = mode;
    const double ms = core::measure_host_step_ms(dim, 3, opt);
    lbm::Lattice probe(dim, mode);
    io::BenchRecord r;
    r.name = name;
    r.storage = mode;
    r.dim = dim;
    r.ms_per_step = ms;
    r.mlups = static_cast<double>(probe.num_cells()) / ms / 1000.0;
    r.bytes_per_step = fused ? io::fused_step_traffic_bytes(probe)
                             : io::split_step_traffic_bytes(probe);
    r.storage_bytes = static_cast<double>(probe.storage_bytes());
    records.push_back(r);
  };
  // Solid-laden scenes: the sparse rows only mean something on geometry
  // with real solid mass, so these share one synthetic "urban" lattice
  // (dense building blocks separated by one-cell street canyons, ~3/4
  // solid) across modes.
  auto make_urban = [](Int3 dim) {
    lbm::Lattice lat(dim);
    lat.set_face_bc(lbm::FACE_XMIN, lbm::FaceBc::Inlet);
    lat.set_face_bc(lbm::FACE_XMAX, lbm::FaceBc::Outflow);
    lat.set_face_bc(lbm::FACE_ZMIN, lbm::FaceBc::Wall);
    lat.set_inlet(Real(1), Vec3{0.05f, 0, 0});
    lat.init_equilibrium(Real(1), Vec3{0.05f, 0, 0});
    for (int bx = 1; bx + 7 <= dim.x; bx += 8) {
      for (int by = 1; by + 7 <= dim.y; by += 8) {
        lat.fill_solid_box(Int3{bx, by, 0}, Int3{bx + 7, by + 7, dim.z - 1});
      }
    }
    return lat;
  };
  auto measure_urban = [&](const char* name, Int3 dim, lbm::StorageMode mode,
                           bool fused, ThreadPool* p) {
    const lbm::Lattice geom = make_urban(dim);
    core::MeasureOptions opt;
    opt.fused = fused;
    opt.pool = p;
    opt.storage = mode;
    const double ms = core::measure_host_step_ms(geom, 3, opt);
    lbm::Lattice probe = make_urban(dim);
    if (mode != lbm::StorageMode::DoubleBuffer) probe.convert_storage(mode);
    i64 fluid = 0;
    for (i64 c = 0; c < probe.num_cells(); ++c) {
      if (probe.flag(c) != lbm::CellType::Solid) ++fluid;
    }
    io::BenchRecord r;
    r.name = name;
    r.storage = mode;
    r.dim = dim;
    r.ms_per_step = ms;
    r.mlups = static_cast<double>(fluid) / ms / 1000.0;
    r.bytes_per_step = fused ? io::fused_step_traffic_bytes(probe)
                             : io::split_step_traffic_bytes(probe);
    r.storage_bytes = static_cast<double>(probe.storage_bytes());
    r.extras.emplace_back("fluid_fraction",
                          static_cast<double>(fluid) /
                              static_cast<double>(probe.num_cells()));
    records.push_back(r);
  };

  const Int3 sub{80, 80, 80};  // the paper's per-node sub-domain
  measure("split_serial", sub, lbm::StorageMode::DoubleBuffer, false, nullptr);
  measure("split_serial", sub, lbm::StorageMode::AA, false, nullptr);
  measure("fused_pooled", sub, lbm::StorageMode::DoubleBuffer, true, &pool);
  measure("fused_pooled", sub, lbm::StorageMode::AA, true, &pool);
  measure("fused_pooled_2x_cells", Int3{100, 100, 100}, lbm::StorageMode::AA,
          true, &pool);
  // The sparse headline: same urban scene, dense vs compact storage —
  // fewer ms/step and bytes/step at ~1/4 fluid fraction — plus a ~2.6x
  // larger scene whose sparse footprint still fits the dense 80^3 budget.
  const Int3 city{80, 80, 80};
  measure_urban("urban_dispersion", city, lbm::StorageMode::DoubleBuffer,
                true, &pool);
  measure_urban("urban_dispersion", city, lbm::StorageMode::Sparse, true,
                &pool);
  measure_urban("urban_dispersion_split", city, lbm::StorageMode::DoubleBuffer,
                false, &pool);
  measure_urban("urban_dispersion_split", city, lbm::StorageMode::Sparse,
                false, &pool);
  measure_urban("urban_dispersion_2.5x_cells", Int3{128, 128, 80},
                lbm::StorageMode::Sparse, true, &pool);
  io::write_bench_json(json_path, records);
  std::printf("wrote %s (%zu records)\n", json_path.c_str(), records.size());
}

}  // namespace

// benchmark::Initialize rejects flags it does not know, so --trace and
// --json are extracted from argv before handing over.
int main(int argc, char** argv) {
  std::string trace_path;
  std::string json_path;
  std::vector<char*> kept;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      trace_path = argv[++i];
    } else if (std::strncmp(argv[i], "--trace=", 8) == 0) {
      trace_path = argv[i] + 8;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else {
      kept.push_back(argv[i]);
    }
  }
  int kept_argc = static_cast<int>(kept.size());
  benchmark::Initialize(&kept_argc, kept.data());
  if (benchmark::ReportUnrecognizedArguments(kept_argc, kept.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (!trace_path.empty()) run_traced_session(trace_path);
  if (!json_path.empty()) run_json_report(json_path);
  return 0;
}
