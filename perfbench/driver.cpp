// Benchmark driver. Runs one workload through the repo's public entry
// points (core::ParallelLbm, service::ScenarioService, service::FlowCache,
// io checkpoints, tracer::TracerCloud) and writes the raw measurements —
// timing samples, spans, counters and output-check results — as one JSON
// object. perfbench/run.py builds this program, runs it and turns the raw
// record into metrics; see perfbench/README.md for the workloads.
//
//   perfbench_driver --workload urban_step|warm_queries|cold_queries
//                    --seed N --seconds S --trace 0|1 --workdir DIR
//                    --out FILE [--tiny 1]
//
// With --trace 1 an obs::TraceRecorder is attached through
// ParallelConfig::trace / PartitionSpec::trace / ServiceConfig::trace, and
// the driver adds spans of its own (lane kBenchLane) around its calls into
// the layers. With --trace 0 nothing is attached. --tiny shrinks every
// input so the schema smoke test runs in seconds.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <future>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "city/city_model.hpp"
#include "city/voxelize.hpp"
#include "city/wind.hpp"
#include "core/parallel_lbm.hpp"
#include "io/bench_json.hpp"
#include "io/checkpoint.hpp"
#include "lbm/macroscopic.hpp"
#include "lbm/sentinel.hpp"
#include "obs/trace.hpp"
#include "service/scenario_service.hpp"
#include "tracer/tracer.hpp"
#include "util/checksum.hpp"
#include "util/rng.hpp"

namespace {

using namespace gc;
using Clock = std::chrono::steady_clock;

/// Trace lane of the driver's own spans (rank lanes are 0..3, service
/// worker lanes 0..1).
constexpr int kBenchLane = 1000;

/// Relative total-mass drift allowed over an urban_step run. The scene has
/// an inlet and an outflow face, so mass is not conserved exactly; a
/// blow-up or a lost exchange moves it by far more than this.
constexpr double kMassDriftTol = 0.02;

/// warm_queries offered load. Two workers serve a cache hit in ~90 ms
/// each on a 4-core x86 box, so capacity is ~20 queries/s; 10/s is about
/// half of it: queueing shows in the tail, but the queue is stable.
constexpr double kWarmRatePerS = 10.0;
/// Every kRefEvery-th warm query repeats a set-up reference request
/// exactly, so its concentration must be bit-equal to the cold result.
constexpr int kRefEvery = 8;
/// Spin-up steps of a service flow. Short enough that a cold query takes
/// about a second, so a run sees tens of them; the LBM still dominates.
constexpr int kSpinUpSteps = 40;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double median(std::vector<double> v) {
  GC_CHECK(!v.empty());
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ---------------------------------------------------------------- JSON --

std::string jnum(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string jstr(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string jarr(const std::vector<double>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i) out += ",";
    out += jnum(v[i]);
  }
  return out + "]";
}

/// Insertion-ordered JSON object built from already-encoded values.
class JObj {
 public:
  JObj& set(const std::string& key, const std::string& raw) {
    kv_.emplace_back(key, raw);
    return *this;
  }
  JObj& num(const std::string& key, double v) { return set(key, jnum(v)); }
  JObj& str(const std::string& key, const std::string& v) {
    return set(key, jstr(v));
  }
  std::string dump() const {
    std::string out = "{";
    for (std::size_t i = 0; i < kv_.size(); ++i) {
      if (i) out += ",";
      out += jstr(kv_[i].first) + ":" + kv_[i].second;
    }
    return out + "}";
  }

 private:
  std::vector<std::pair<std::string, std::string>> kv_;
};

std::string jlist(const std::vector<std::string>& raws) {
  std::string out = "[";
  for (std::size_t i = 0; i < raws.size(); ++i) {
    if (i) out += ",";
    out += raws[i];
  }
  return out + "]";
}

/// Threads joined on destruction, so an exception thrown while spawning
/// never destroys a joinable std::thread.
class ThreadGroup {
 public:
  ThreadGroup() = default;
  ThreadGroup(const ThreadGroup&) = delete;
  ThreadGroup& operator=(const ThreadGroup&) = delete;
  ~ThreadGroup() { join(); }

  template <class F>
  void spawn(F&& f) {
    threads_.emplace_back(std::forward<F>(f));
  }
  void join() {
    for (std::thread& t : threads_) {
      if (t.joinable()) t.join();
    }
  }

 private:
  std::vector<std::thread> threads_;
};

// ------------------------------------------------------------- context --

struct Args {
  std::string workload;
  u64 seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;
  std::string workdir;
  std::string out;
};

/// Everything a workload reports; main() writes it to --out.
struct Record {
  JObj fields;
  std::vector<std::string> checks;
  bool all_ok = true;
  i64 attempted = 0;
  i64 failed = 0;

  void check(const std::string& name, bool ok, const std::string& detail) {
    checks.push_back(
        JObj().str("name", name).set("ok", ok ? "true" : "false")
            .str("detail", detail).dump());
    all_ok = all_ok && ok;
  }
};

/// Spans, counter and gauge values of the recorder, restricted to spans
/// that started at or after `from_us` (recorder time).
std::string dump_trace(const obs::TraceRecorder& rec, double from_us) {
  std::vector<std::string> ev;
  for (const obs::TraceEvent& e : rec.events()) {
    if (e.t0_us < from_us) continue;
    ev.push_back("[" + jstr(e.name) + "," + jstr(e.cat) + "," +
                 std::to_string(e.rank) + "," + jnum(e.t0_us) + "," +
                 jnum(e.t1_us) + "]");
  }
  std::vector<std::string> counters;
  for (const obs::CounterSample& c : rec.counters()) {
    counters.push_back("[" + jstr(c.name) + "," + std::to_string(c.rank) +
                       "," + std::to_string(c.value) + "]");
  }
  std::vector<std::string> gauges;
  for (const obs::GaugeSample& g : rec.gauges()) {
    gauges.push_back("[" + jstr(g.name) + "," + std::to_string(g.rank) + "," +
                     jnum(g.value) + "]");
  }
  return JObj()
      .set("events", jlist(ev))
      .set("counters", jlist(counters))
      .set("gauges", jlist(gauges))
      .dump();
}

// ---------------------------------------------------------- STREAM triad --

/// STREAM triad a = b + s*c over three double arrays of `n` elements,
/// split across `threads` threads; returns the median GB/s of `reps`
/// passes (STREAM's byte count: 3 arrays, no write-allocate).
double triad_gbs(std::size_t n, int threads, int reps) {
  std::vector<double> a(n), b(n), c(n);
  auto parallel = [&](auto&& body) {
    ThreadGroup ts;
    for (int t = 0; t < threads; ++t) {
      const std::size_t lo = n * static_cast<std::size_t>(t) /
                             static_cast<std::size_t>(threads);
      const std::size_t hi = n * static_cast<std::size_t>(t + 1) /
                             static_cast<std::size_t>(threads);
      ts.spawn([&body, lo, hi] { body(lo, hi); });
    }
  };
  // First touch from the threads that stream the slices later.
  parallel([&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      a[i] = 0.0;
      b[i] = 1.0;
      c[i] = 2.0;
    }
  });
  const double s = 3.0;
  std::vector<double> gbs;
  for (int r = 0; r < reps; ++r) {
    const Clock::time_point t0 = Clock::now();
    parallel([&](std::size_t lo, std::size_t hi) {
      double* GC_RESTRICT pa = a.data();
      const double* GC_RESTRICT pb = b.data();
      const double* GC_RESTRICT pc = c.data();
      for (std::size_t i = lo; i < hi; ++i) pa[i] = pb[i] + s * pc[i];
    });
    const double sec = ms_between(t0, Clock::now()) * 1e-3;
    gbs.push_back(3.0 * sizeof(double) * static_cast<double>(n) / sec / 1e9);
  }
  GC_CHECK_MSG(a[n / 2] == 7.0, "triad produced a wrong value");
  return median(gbs);
}

// ------------------------------------------------------------ urban_step --

struct UrbanScene {
  Int3 dim{160, 160, 80};
  Real meters_per_cell = city::VoxelizeParams{}.meters_per_cell;
  Int3 origin{};   ///< city (0,0) corner on the lattice, in cells
  Real wind = 0;   ///< northeasterly inflow speed (lattice units)
};

UrbanScene urban_scene(const Args& a) {
  UrbanScene s;
  if (a.tiny) {
    // The whole city, ten times coarser, centred with free-flow margins.
    s.dim = Int3{56, 40, 16};
    s.meters_per_cell = Real(38);
    const city::CityParams cp;
    s.origin = Int3{
        s.dim.x / 2 - static_cast<int>(cp.extent_x_m / s.meters_per_cell / 2),
        s.dim.y / 2 - static_cast<int>(cp.extent_y_m / s.meters_per_cell / 2),
        0};
  } else {
    // The city's south-west corner (the city is ~437 x 297 cells at the
    // paper's 3.8 m), 20 cells in from the two outflow faces of the
    // northeasterly wind. A window whose buildings are cut by an outflow
    // face diverges within ~500 steps: the zero-gradient outflow does not
    // survive the wakes crossing it.
    s.origin = Int3{20, 20, 0};
  }
  // The seed varies only the inflow speed: the work per step does not
  // depend on it, the bytes of the result do.
  Rng rng(a.seed);
  s.wind = static_cast<Real>(0.045 + 0.01 * rng.uniform());
  return s;
}

lbm::Lattice build_urban(const UrbanScene& s) {
  const city::CityModel model{city::CityParams{}};
  lbm::Lattice lat(s.dim);
  const city::WindScenario wind = city::WindScenario::northeasterly(s.wind);
  city::apply_wind_boundaries(lat, wind);
  lat.init_equilibrium(Real(1), wind.velocity);
  city::VoxelizeParams vp;
  vp.meters_per_cell = s.meters_per_cell;
  vp.origin_cells = s.origin;
  city::voxelize(model, lat, vp);
  return lat;
}

core::ParallelConfig urban_config(obs::TraceRecorder* rec) {
  core::ParallelConfig cfg;
  cfg.grid.dims = Int3{2, 2, 1};
  cfg.storage = lbm::StorageMode::Sparse;
  cfg.fluid_balanced = true;
  cfg.overlap = true;
  cfg.trace = rec;
  return cfg;
}

u32 state_crc(const lbm::Lattice& lat) {
  Real f[lbm::Q];
  u32 crc = 0;
  for (i64 cell = 0; cell < lat.num_cells(); ++cell) {
    lat.gather_cell(cell, f);
    crc = crc32(f, sizeof f, crc);
  }
  return crc;
}

void run_urban(const Args& a, Record& out) {
  const UrbanScene scene = urban_scene(a);
  const int setup_reps = a.tiny ? 1 : 5;
  const int warmup_steps = a.tiny ? 1 : 3;

  // Bandwidth probe first, while nothing else is resident.
  const std::size_t triad_n = a.tiny ? (std::size_t{1} << 20)
                                     : (std::size_t{16} << 20);
  const int threads = 4;
  if (a.trace) {
    out.fields.set(
        "triad",
        JObj()
            .num("gbs", triad_gbs(triad_n, threads, a.tiny ? 3 : 10))
            .num("array_mib", static_cast<double>(triad_n * sizeof(double)) /
                                  (1 << 20))
            .num("arrays", 3)
            .num("threads", threads)
            .dump());
  }

  // Set-up: procedural city, voxelized window, scatter onto 2x2 ranks.
  // Repeated so the reported set-up time is a median.
  std::vector<double> setup_s;
  std::unique_ptr<lbm::Lattice> start;
  std::unique_ptr<core::ParallelLbm> sim;
  for (int r = 0; r < setup_reps; ++r) {
    sim.reset();
    start.reset();
    const Clock::time_point t0 = Clock::now();
    start = std::make_unique<lbm::Lattice>(build_urban(scene));
    sim = std::make_unique<core::ParallelLbm>(*start, urban_config(nullptr));
    setup_s.push_back(ms_between(t0, Clock::now()) * 1e-3);
  }
  i64 solid = 0;
  for (i64 c = 0; c < start->num_cells(); ++c) {
    solid += start->flag(c) == lbm::CellType::Solid;
  }
  const double mass0 = lbm::total_mass(*start);

  // The traced twin starts from the same state; the two runs must end
  // bit-identical.
  obs::TraceRecorder rec;
  std::unique_ptr<core::ParallelLbm> traced;
  if (a.trace) {
    traced = std::make_unique<core::ParallelLbm>(*start, urban_config(&rec));
  }

  sim->run(warmup_steps);
  double trace_from_us = 0;
  if (traced) {
    rec.set_enabled(false);
    traced->run(warmup_steps);
    rec.set_enabled(true);
    trace_from_us = rec.now_us();
    out.fields.set("trace_before", dump_trace(rec, 1e300));
  }

  // Timed: one global step per sample. Traced steps (timed by their
  // bench.step span) interleave with the untraced ones, each going first
  // on every other step, so both see the same machine state.
  std::vector<double> step_ms;
  auto untraced_step = [&] {
    const Clock::time_point t0 = Clock::now();
    sim->run(1);
    step_ms.push_back(ms_between(t0, Clock::now()));
  };
  auto traced_step = [&] {
    obs::ScopedSpan span(&rec, "bench.step", kBenchLane, "bench");
    traced->run(1);
  };
  const Clock::time_point t_begin = Clock::now();
  while (step_ms.size() < 2 ||
         ms_between(t_begin, Clock::now()) < a.seconds * 1e3) {
    if (traced && step_ms.size() % 2 == 1) {
      traced_step();
      untraced_step();
    } else {
      untraced_step();
      if (traced) traced_step();
    }
  }
  const double window_s = ms_between(t_begin, Clock::now()) * 1e-3;

  double bytes_per_step = 0;
  for (int r = 0; r < sim->decomposition().num_nodes(); ++r) {
    bytes_per_step += io::split_step_traffic_bytes(sim->local(r));
  }

  // Output checks on the gathered state.
  sim->gather(*start);
  const auto div = lbm::scan_divergence(*start, lbm::SentinelThresholds{});
  out.check("urban.no_divergence", !div,
            div ? div->describe() : "scan_divergence found nothing");
  const double mass1 = lbm::total_mass(*start);
  const double drift = std::abs(mass1 - mass0) / mass0;
  out.check("urban.mass_drift", drift <= kMassDriftTol,
            "relative drift " + jnum(drift) + " (tolerance " +
                jnum(kMassDriftTol) + ")");
  const u32 crc = state_crc(*start);
  if (traced) {
    traced->gather(*start);
    const u32 crc_traced = state_crc(*start);
    out.check("urban.traced_equals_untraced", crc == crc_traced,
              "crc " + std::to_string(crc) + " vs " +
                  std::to_string(crc_traced) + " after " +
                  std::to_string(warmup_steps + step_ms.size()) + " steps");
    out.fields.set("trace", dump_trace(rec, trace_from_us));
  }

  out.attempted = static_cast<i64>(step_ms.size());
  out.failed = 0;
  out.fields.set("setup_s", jarr(setup_s))
      .set("samples_ms", jarr(step_ms))
      .num("window_s", window_s)
      .num("computed_bytes_per_step", bytes_per_step)
      .num("mass_drift", drift)
      .num("state_crc", crc)
      .set("config",
           JObj()
               .set("dim", "[" + std::to_string(scene.dim.x) + "," +
                               std::to_string(scene.dim.y) + "," +
                               std::to_string(scene.dim.z) + "]")
               .num("solid_fraction", static_cast<double>(solid) /
                                          static_cast<double>(
                                              start->num_cells()))
               .num("wind", scene.wind)
               .str("storage", "Sparse")
               .str("grid", "2x2x1")
               .set("overlap", "true")
               .set("fluid_balanced", "true")
               .num("warmup_steps", warmup_steps)
               .dump())
      .set("threads", JObj().num("rank_threads", 4).num("simulations", 1)
                          .dump());
}

// ------------------------------------------------------------- service --

service::ScenarioRequest base_request(bool tiny) {
  service::ScenarioRequest r;
  r.dim = tiny ? Int3{48, 32, 12} : Int3{96, 64, 24};
  r.city.extent_x_m = Real(300);
  r.city.extent_y_m = Real(200);
  r.city.avenues = 4;
  r.city.streets = 5;
  r.voxel.meters_per_cell = Real(4);
  r.voxel.origin_cells = Int3{10, 8, 0};
  r.spin_up_steps = tiny ? 5 : kSpinUpSteps;
  r.tracer_steps = tiny ? 10 : 100;
  r.releases.push_back(service::Release{Int3{}, tiny ? 200 : 4000});
  return r;
}

/// Street-level fluid cells of the request geometry: the release sites.
std::vector<Int3> release_sites(const service::ScenarioRequest& base) {
  const lbm::Lattice lat = service::build_scenario_lattice(base);
  std::vector<Int3> sites;
  const Int3 d = lat.dim();
  for (int y = 2; y < d.y - 2; ++y) {
    for (int x = 2; x < d.x - 2; ++x) {
      if (lat.flag(lat.idx(x, y, 2)) == lbm::CellType::Fluid) {
        sites.push_back(Int3{x, y, 2});
      }
    }
  }
  GC_CHECK_MSG(!sites.empty(), "no fluid release site in the request grid");
  return sites;
}

service::ServiceConfig service_config(const Args& a, obs::TraceRecorder* rec,
                                      i64 cache_max_bytes) {
  service::ServiceConfig cfg;
  cfg.cache_dir = a.workdir + "/flow_cache";
  cfg.cache_max_bytes = cache_max_bytes;
  cfg.workers = 2;
  cfg.partitions = 2;
  cfg.partition.grid.dims = Int3{2, 1, 1};
  cfg.partition.overlap = true;
  cfg.partition.trace = rec;
  cfg.trace = rec;
  return cfg;
}

std::string service_threads_json() {
  return JObj()
      .num("service_workers", 2)
      .num("partitions", 2)
      .num("ranks_per_partition", 2)
      .dump();
}

std::string result_json(const service::ScenarioResult& r) {
  return JObj()
      .set("hit", r.cache_hit ? "true" : "false")
      .num("flow_ms", r.flow_ms)
      .num("tracer_ms", r.tracer_ms)
      .num("flow_wall_ms", r.flow_stats.wall_ms)
      .num("flow_steps", static_cast<double>(r.flow_stats.steps))
      .num("released", static_cast<double>(r.particles_released))
      .dump();
}

bool same_bits(const std::vector<float>& x, const std::vector<float>& y) {
  return x.size() == y.size() &&
         std::memcmp(x.data(), y.data(), x.size() * sizeof(float)) == 0;
}

/// The driver's own calls into io and tracer, timed by bench.* spans:
/// loads a committed cache entry `reps` times, runs the tracer steps of
/// `req` against it `reps` times and, when `save_to` is set, saves it
/// again `reps` times.
void io_tracer_probe(const std::string& checkpoint,
                     const service::ScenarioRequest& req, int reps,
                     const std::string& save_to, obs::TraceRecorder& rec,
                     Record& out) {
  lbm::Lattice flow(Int3{1, 1, 1});
  for (int r = 0; r < reps; ++r) {
    obs::ScopedSpan span(&rec, "bench.checkpoint_load", kBenchLane, "bench");
    flow = io::load_checkpoint(checkpoint);
  }
  double hops = 0;  // particle hops per tracer run; the same every run
  for (int r = 0; r < reps; ++r) {
    tracer::TracerParams tp;
    tp.seed = req.tracer_seed;
    tracer::TracerCloud cloud(tp);
    for (const service::Release& rel : req.releases) {
      cloud.release(rel.site, rel.count);
    }
    hops = 0;
    obs::ScopedSpan span(&rec, "bench.tracer", kBenchLane, "bench");
    for (int s = 0; s < req.tracer_steps; ++s) {
      hops += static_cast<double>(cloud.num_particles());
      cloud.step(flow);
    }
  }
  for (int r = 0; r < reps && !save_to.empty(); ++r) {
    obs::ScopedSpan span(&rec, "bench.checkpoint_save", kBenchLane, "bench");
    io::save_checkpoint(save_to, flow);
  }
  if (!save_to.empty()) std::filesystem::remove(save_to);
  out.fields.num("probe_hops", hops)
      .num("checkpoint_bytes",
           static_cast<double>(std::filesystem::file_size(checkpoint)));
}

// ---------------------------------------------------------- warm_queries --

void run_warm(const Args& a, Record& out) {
  Rng rng(a.seed);
  obs::TraceRecorder rec;
  obs::TraceRecorder* trp = a.trace ? &rec : nullptr;
  const service::ScenarioRequest base = base_request(a.tiny);
  const std::vector<Int3> sites = release_sites(base);
  auto random_site = [&] {
    return sites[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<i64>(sites.size()) - 1))];
  };

  // Reference requests: one per wind, seeded winds, sites and tracer
  // seeds. Computed cold in set-up, they pre-warm the cache.
  const int winds = a.tiny ? 2 : 3;
  std::vector<service::ScenarioRequest> refs;
  for (int k = 0; k < winds; ++k) {
    service::ScenarioRequest r = base;
    r.wind.velocity = Vec3{Real(0.04 + 0.01 * k + 0.002 * rng.uniform()),
                           Real(0), Real(0)};
    r.releases[0].site = random_site();
    r.tracer_seed = rng.next_u64();
    refs.push_back(r);
  }

  std::vector<double> setup_s;
  std::vector<service::ScenarioResult> ref_results;
  Clock::time_point t0 = Clock::now();
  service::ScenarioService svc(service_config(a, trp, 0));
  for (const service::ScenarioRequest& r : refs) {
    ref_results.push_back(svc.submit(r).get());
    const Clock::time_point t1 = Clock::now();
    setup_s.push_back(ms_between(t0, t1) * 1e-3);
    t0 = t1;
  }
  bool refs_cold = true;
  for (const service::ScenarioResult& r : ref_results) {
    refs_cold = refs_cold && !r.cache_hit;
  }
  out.check("warm.references_computed_cold", refs_cold,
            "set-up references must miss the empty cache");

  // Open-loop schedule: Poisson arrivals at a fixed rate, a seeded mix of
  // winds, sites and tracer seeds; every kRefEvery-th query repeats a
  // reference request exactly. The arrival count is fixed at rate x run
  // time, and given their count, Poisson arrival times are uniform order
  // statistics over the run.
  const double rate = a.tiny ? 20.0 : kWarmRatePerS;
  const int n = std::max(1, static_cast<int>(std::lround(rate * a.seconds)));
  std::vector<double> due_ms(static_cast<std::size_t>(n));
  for (double& d : due_ms) d = rng.uniform() * a.seconds * 1e3;
  std::sort(due_ms.begin(), due_ms.end());
  std::vector<service::ScenarioRequest> reqs;
  std::vector<int> ref_of(static_cast<std::size_t>(n), -1);
  for (int i = 0; i < n; ++i) {
    const int k = static_cast<int>(rng.uniform_int(0, winds - 1));
    if (i % kRefEvery == 0) {
      reqs.push_back(refs[static_cast<std::size_t>(k)]);
      ref_of[static_cast<std::size_t>(i)] = k;
    } else {
      service::ScenarioRequest r = refs[static_cast<std::size_t>(k)];
      r.releases[0].site = random_site();
      r.tracer_seed = rng.next_u64();
      reqs.push_back(r);
    }
  }

  struct Slot {
    double sent_ms = 0;
    double done_ms = 0;
    bool accepted = false;
    bool ok = false;
    std::string error;
    service::ScenarioResult res;
  };
  std::vector<Slot> slots(static_cast<std::size_t>(n));
  ThreadGroup waiters;
  if (a.trace) out.fields.set("trace_before", dump_trace(rec, 1e300));
  const double trace_from_us = rec.now_us();
  const Clock::time_point t_start =
      Clock::now() + std::chrono::milliseconds(20);
  for (int i = 0; i < n; ++i) {
    Slot& slot = slots[static_cast<std::size_t>(i)];
    std::this_thread::sleep_until(
        t_start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double, std::milli>(
                          due_ms[static_cast<std::size_t>(i)])));
    slot.sent_ms = ms_between(t_start, Clock::now());
    std::future<service::ScenarioResult> fut;
    slot.accepted = svc.try_submit(reqs[static_cast<std::size_t>(i)], &fut);
    if (!slot.accepted) continue;
    // One waiter per query stamps its own completion time; each writes
    // only its own slot, which is read after the join.
    waiters.spawn([&slot, t_start, f = std::move(fut)]() mutable {
      try {
        slot.res = f.get();
        slot.ok = true;
      } catch (const std::exception& e) {
        slot.error = e.what();
      }
      slot.done_ms = ms_between(t_start, Clock::now());
    });
  }
  waiters.join();

  std::vector<std::string> queries;
  int refused = 0, errors = 0, hits = 0, ref_checked = 0, ref_equal = 0;
  std::string first_error;
  for (int i = 0; i < n; ++i) {
    const Slot& s = slots[static_cast<std::size_t>(i)];
    if (!s.accepted) {
      ++refused;
      continue;
    }
    if (!s.ok) {
      ++errors;
      if (first_error.empty()) first_error = s.error;
      continue;
    }
    hits += s.res.cache_hit;
    const int k = ref_of[static_cast<std::size_t>(i)];
    if (k >= 0) {
      ++ref_checked;
      const service::ScenarioResult& ref =
          ref_results[static_cast<std::size_t>(k)];
      ref_equal += same_bits(s.res.concentration, ref.concentration) &&
                   s.res.particles_escaped == ref.particles_escaped;
    }
    queries.push_back(JObj()
                          .num("due_ms", due_ms[static_cast<std::size_t>(i)])
                          .num("sent_ms", s.sent_ms)
                          .num("done_ms", s.done_ms)
                          .set("result", result_json(s.res))
                          .dump());
  }
  out.check("warm.no_errors", errors == 0,
            std::to_string(errors) + " failed queries " + first_error);
  out.check("warm.every_query_hits", hits == n - refused - errors,
            std::to_string(hits) + " hits of " +
                std::to_string(n - refused - errors));
  out.check("warm.bit_equal_to_cold_reference",
            ref_checked > 0 && ref_equal == ref_checked,
            std::to_string(ref_equal) + " of " + std::to_string(ref_checked) +
                " sampled concentrations equal the cold reference");

  out.attempted = n;
  out.failed = refused + errors;
  out.fields.set("setup_s", jarr(setup_s))
      .set("queries", jlist(queries))
      .num("refused", refused)
      .num("errors", errors)
      .num("rate_per_s", rate)
      .set("config", JObj()
                         .num("winds", winds)
                         .num("spin_up_steps", base.spin_up_steps)
                         .num("tracer_steps", base.tracer_steps)
                         .num("particles", base.releases[0].count)
                         .num("ref_every", kRefEvery)
                         .str("loop", "open, Poisson arrivals")
                         .dump())
      .set("threads", service_threads_json());
  if (a.trace) {
    const service::ScenarioRequest& r0 = refs[0];
    const lbm::Lattice lat = service::build_scenario_lattice(r0);
    io_tracer_probe(svc.cache().checkpoint_path(
                        service::scenario_flow_key(r0, lat)),
                    r0, a.tiny ? 1 : 5, "", rec, out);
    out.fields.set("trace", dump_trace(rec, trace_from_us));
  }
}

// ---------------------------------------------------------- cold_queries --

void run_cold(const Args& a, Record& out) {
  Rng rng(a.seed);
  obs::TraceRecorder rec;
  obs::TraceRecorder* trp = a.trace ? &rec : nullptr;
  const service::ScenarioRequest base = base_request(a.tiny);
  const std::vector<Int3> sites = release_sites(base);

  // A seeded permutation of distinct inflow speeds: request j gets wind
  // j, so every request has its own flow key.
  constexpr int kWinds = 4096;
  std::vector<Real> wind(kWinds);
  for (int j = 0; j < kWinds; ++j) {
    wind[static_cast<std::size_t>(j)] = Real(0.03 + 1e-5 * j);
  }
  for (int j = kWinds - 1; j > 0; --j) {
    std::swap(wind[static_cast<std::size_t>(j)],
              wind[static_cast<std::size_t>(rng.uniform_int(0, j))]);
  }
  const u64 site_seed = rng.next_u64();
  auto request = [&](int j) {
    GC_CHECK_MSG(j < kWinds, "cold_queries ran out of distinct winds");
    service::ScenarioRequest r = base;
    r.wind.velocity =
        Vec3{wind[static_cast<std::size_t>(j)], Real(0), Real(0)};
    Rng site_rng(site_seed + static_cast<u64>(j));
    r.releases[0].site = sites[static_cast<std::size_t>(
        site_rng.uniform_int(0, static_cast<i64>(sites.size()) - 1))];
    r.tracer_seed = site_rng.next_u64();
    return r;
  };

  // Set-up: the service plus warm-up queries (first-touch, thread start),
  // each a full cold query on a wind the timed loop never uses.
  const int warmups = a.tiny ? 1 : 3;
  // The cache directory is byte-bounded, so a run's commits evict
  // each other instead of filling the disk.
  const i64 budget = i64{64} << 20;
  std::vector<double> setup_s;
  Clock::time_point t0 = Clock::now();
  service::ScenarioService svc(service_config(a, trp, budget));
  int next = 0;
  for (int w = 0; w < warmups; ++w) {
    svc.submit(request(next++)).get();
    const Clock::time_point t1 = Clock::now();
    setup_s.push_back(ms_between(t0, t1) * 1e-3);
    t0 = t1;
  }

  // Closed loop: two clients, each waiting for its reply before sending
  // the next query, until the run time is up.
  struct Done {
    int j = 0;
    double start_ms = 0;
    double done_ms = 0;
    bool ok = false;
    std::string error;
    service::ScenarioResult res;
  };
  constexpr int kClients = 2;
  std::vector<std::vector<Done>> per_client(kClients);
  std::atomic<int> next_j{next};
  if (a.trace) out.fields.set("trace_before", dump_trace(rec, 1e300));
  const double trace_from_us = rec.now_us();
  const Clock::time_point t_start = Clock::now();
  ThreadGroup clients;
  for (int c = 0; c < kClients; ++c) {
    clients.spawn([&, c] {
      std::vector<Done>& mine = per_client[static_cast<std::size_t>(c)];
      while (ms_between(t_start, Clock::now()) < a.seconds * 1e3) {
        Done d;
        d.j = next_j.fetch_add(1);
        d.start_ms = ms_between(t_start, Clock::now());
        try {
          d.res = svc.submit(request(d.j)).get();
          d.ok = true;
        } catch (const std::exception& e) {
          d.error = e.what();
        }
        d.done_ms = ms_between(t_start, Clock::now());
        mine.push_back(std::move(d));
      }
    });
  }
  clients.join();

  std::vector<std::string> queries;
  std::set<std::string> stems;
  int errors = 0, misses = 0, ok = 0;
  i64 attempted = 0;
  std::string first_error;
  std::string last_committed;
  int last_j = -1;
  for (const std::vector<Done>& mine : per_client) {
    for (const Done& d : mine) {
      ++attempted;
      if (!d.ok) {
        ++errors;
        if (first_error.empty()) first_error = d.error;
        continue;
      }
      ++ok;
      misses += !d.res.cache_hit;
      const service::ScenarioRequest req = request(d.j);
      const service::FlowKey key = service::scenario_flow_key(
          req, service::build_scenario_lattice(req));
      stems.insert(service::flow_key_stem(key));
      if (svc.cache().contains(key)) {
        last_committed = svc.cache().checkpoint_path(key);
        last_j = d.j;
      }
      queries.push_back(JObj()
                            .num("start_ms", d.start_ms)
                            .num("done_ms", d.done_ms)
                            .set("result", result_json(d.res))
                            .dump());
    }
  }
  out.check("cold.no_errors", errors == 0,
            std::to_string(errors) + " failed queries " + first_error);
  out.check("cold.every_query_misses", misses == ok,
            std::to_string(misses) + " misses of " + std::to_string(ok));
  out.check("cold.distinct_flow_keys",
            static_cast<int>(stems.size()) == ok,
            std::to_string(stems.size()) + " distinct keys for " +
                std::to_string(ok) + " queries");

  out.attempted = attempted;
  out.failed = errors;
  out.fields.set("setup_s", jarr(setup_s))
      .set("queries", jlist(queries))
      .num("errors", errors)
      .set("config", JObj()
                         .num("clients", kClients)
                         .num("spin_up_steps", base.spin_up_steps)
                         .num("tracer_steps", base.tracer_steps)
                         .num("particles", base.releases[0].count)
                         .num("cache_max_bytes", static_cast<double>(budget))
                         .str("loop", "closed")
                         .dump())
      .set("threads", service_threads_json());
  if (a.trace) {
    if (last_j >= 0) {
      io_tracer_probe(last_committed, request(last_j), a.tiny ? 1 : 5,
                      a.workdir + "/probe.gclb", rec, out);
    }
    out.fields.set("trace", dump_trace(rec, trace_from_us));
  }
}

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::stoull(v);
    } else if (k == "--seconds") {
      a.seconds = std::stod(v);
    } else if (k == "--trace") {
      a.trace = v == "1";
    } else if (k == "--tiny") {
      a.tiny = v == "1";
    } else if (k == "--workdir") {
      a.workdir = v;
    } else if (k == "--out") {
      a.out = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a.workload.empty() && !a.workdir.empty() &&
         !a.out.empty() && a.seconds > 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!parse_args(argc, argv, a)) {
    std::fprintf(stderr,
                 "usage: perfbench_driver --workload W --seed N --seconds S "
                 "--trace 0|1 --workdir DIR --out FILE [--tiny 1]\n");
    return 2;
  }
  try {
    std::filesystem::create_directories(a.workdir);
    Record rec;
    if (a.workload == "urban_step") {
      run_urban(a, rec);
    } else if (a.workload == "warm_queries") {
      run_warm(a, rec);
    } else if (a.workload == "cold_queries") {
      run_cold(a, rec);
    } else {
      std::fprintf(stderr, "unknown workload %s\n", a.workload.c_str());
      return 2;
    }
    rec.fields.num("peak_rss_mb", peak_rss_mb())
        .num("attempted", static_cast<double>(rec.attempted))
        .num("failed", static_cast<double>(rec.failed))
        .set("checks", jlist(rec.checks))
        .set("correct", rec.all_ok ? "true" : "false");
    std::ofstream f(a.out, std::ios::trunc);
    f << rec.fields.dump() << "\n";
    if (!f.good()) {
      std::fprintf(stderr, "cannot write %s\n", a.out.c_str());
      return 1;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 1;
  }
  return 0;
}
