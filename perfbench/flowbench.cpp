// Whole-flow benchmark program. Runs the reference flow
//
//   generate -> global place -> legalize -> detailed place      (set-up)
//   -> route -> STA/power -> vm1opt -> re-route -> STA/power    (flow)
//
// on a batch of `tiny` OpenM1 designs, timing every call into a layer's
// public function from outside and taking deltas of the obs registry around
// it. One untraced pass flows the batch; between its designs the set-up
// stage runs --setup-reps more times on its own, for its timing. With
// --recheck=1, vm1opt is repeated on the first design; with --trace=PATH
// one more pass runs under obs tracing, with the benchmark's own spans
// around each layer call. Each pass regenerates the designs from their
// seeds, so the work fingerprints of two passes must agree exactly.
//
// Writes one JSON object of raw measurements to --out; perfbench/run.py
// turns it into the benchmark's metrics and correctness verdict.
//
//   flowbench --seed=1 --backend=threads|processes
//             --setup-reps=60 --recheck=0|1 [--trace=PATH] --out=PATH
#include <dirent.h>
#include <sys/types.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/vm1opt.h"
#include "design/design.h"
#include "design/legality.h"
#include "dist/coordinator.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "place/detailed_placer.h"
#include "place/global_placer.h"
#include "place/hpwl.h"
#include "place/legalizer.h"
#include "route/router.h"
#include "timing/power.h"
#include "timing/sta.h"
#include "util/json_writer.h"

using namespace vm1;

namespace {

// Every workload flows the same batch of designs, netlist seeds seed ..
// seed + 5, with 2-way parallelism: 2 solver threads, or 2 worker processes
// on the processes backend.
constexpr const char* kDesign = "tiny";
constexpr CellArch kArch = CellArch::kOpenM1;
constexpr int kDesigns = 6;
constexpr unsigned kThreads = 2;
constexpr int kWorkers = 2;

struct Args {
  std::uint64_t seed = 1;
  bool fleet = false;
  int setup_reps = 0;  ///< set-up-only repetitions in the untraced pass
  bool recheck = false;
  std::string trace_path;
  std::string out_path;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "flowbench: %s\nusage: flowbench --seed=N "
               "--backend=threads|processes --setup-reps=R --recheck=0|1 "
               "[--trace=PATH] --out=PATH\n",
               why);
  std::exit(64);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    std::string s = argv[i];
    std::size_t eq = s.find('=');
    if (s.rfind("--", 0) != 0 || eq == std::string::npos) usage(argv[i]);
    std::string key = s.substr(2, eq - 2), val = s.substr(eq + 1);
    if (key == "seed") a.seed = std::stoull(val);
    else if (key == "backend" && (val == "threads" || val == "processes"))
      a.fleet = val == "processes";
    else if (key == "setup-reps") a.setup_reps = std::stoi(val);
    else if (key == "recheck") a.recheck = val == "1";
    else if (key == "trace") a.trace_path = val;
    else if (key == "out") a.out_path = val;
    else usage(argv[i]);
  }
  if (a.setup_reps < 0) usage("--setup-reps must not be negative");
  if (a.out_path.empty()) usage("--out is required");
  return a;
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::map<std::string, long> counter_values() {
  std::map<std::string, long> out;
  for (const auto& [name, v] : obs::snapshot_metrics().counters) out[name] = v;
  return out;
}

/// Sum of counter deltas observed around the layer calls of one kind.
using CounterDeltas = std::map<std::string, long>;

/// Times one call into a layer and, when `deltas` is given, adds the obs
/// counter deltas it caused. When tracing, the call runs under a benchmark
/// span tagged with the run id; the program's own spans nest beneath it.
template <typename F>
double timed_call(const char* span_name, std::uint64_t run_id, int design,
                  CounterDeltas* deltas, F&& fn) {
  std::map<std::string, long> before;
  if (deltas) before = counter_values();
  double t0 = now_s();
  {
    obs::ObsSpan span(span_name);
    span.arg("run", static_cast<double>(run_id)).arg("design", design);
    fn();
  }
  double dt = now_s() - t0;
  if (deltas) {
    for (const auto& [name, v] : counter_values()) {
      auto it = before.find(name);
      long d = v - (it == before.end() ? 0 : it->second);
      if (d != 0) (*deltas)[name] += d;
    }
  }
  return dt;
}

long status_kb(const std::string& status_path, const char* key) {
  std::ifstream in(status_path);
  std::string line;
  std::size_t klen = std::strlen(key);
  while (std::getline(in, line)) {
    if (line.compare(0, klen, key) == 0) return std::atol(line.c_str() + klen);
  }
  return 0;
}

/// Resets this process's peak resident set (VmHWM) to its current size.
void reset_peak_rss() { std::ofstream("/proc/self/clear_refs") << "5"; }

/// Peak resident set (VmHWM) of every live child process, summed: the
/// worker fleet on the processes backend.
long children_hwm_kb() {
  long total = 0;
  const pid_t self = getpid();
  std::unique_ptr<DIR, int (*)(DIR*)> dir(opendir("/proc"), closedir);
  if (!dir) return 0;
  while (dirent* e = readdir(dir.get())) {
    char* end = nullptr;
    long pid = std::strtol(e->d_name, &end, 10);
    if (pid <= 0 || *end != '\0') continue;
    std::ifstream stat("/proc/" + std::string(e->d_name) + "/stat");
    std::string text((std::istreambuf_iterator<char>(stat)),
                     std::istreambuf_iterator<char>());
    std::size_t close = text.rfind(')');
    if (close == std::string::npos) continue;
    std::istringstream rest(text.substr(close + 1));
    std::string state;
    long ppid = 0;
    rest >> state >> ppid;
    if (ppid == self) {
      total += status_kb("/proc/" + std::string(e->d_name) + "/status",
                         "VmHWM:");
    }
  }
  return total;
}

struct Snapshot {
  Coord hpwl = 0;
  RouteMetrics route;
  double power_mw = 0;
};

/// One design's trip through the flow: per-layer seconds, the obs counter
/// deltas of each layer call, and the quality snapshots around vm1opt.
struct DesignResult {
  std::uint64_t seed = 0;
  std::size_t baseline_violations = 0;
  std::size_t final_violations = 0;
  std::map<std::string, double> seconds;
  std::map<std::string, CounterDeltas> calls;
  Snapshot init, final;
  VM1OptStats opt;
};

struct Pass {
  bool traced = false;
  double setup_s = 0;
  std::map<std::string, double> setup;  ///< per-layer set-up seconds
  double flow_s = 0;
  std::vector<std::pair<std::string, obs::HistogramSnapshot>> histograms;
  std::vector<DesignResult> designs;
  int live_workers = 0;
  long self_hwm_kb = 0;   ///< this process's peak resident set in the flows
  long fleet_hwm_kb = 0;  ///< the workers' VmHWM, summed
};

/// The set-up stage's products: placed designs and, on the processes
/// backend, a connected worker fleet; with the stage's timings.
struct SetUp {
  std::vector<Design> designs;
  std::unique_ptr<dist::Coordinator> fleet;
  int live_workers = 0;
  std::map<std::string, double> seconds;  ///< per layer
  double total_s = 0;
};

/// Generates and places `count` designs, then connects the fleet.
SetUp set_up(const Args& a, int count) {
  SetUp s;
  const std::uint64_t run_id = a.seed;
  double t0 = now_s();
  obs::ObsSpan span("bench.setup");
  span.arg("run", static_cast<double>(run_id));
  for (int i = 0; i < count; ++i) {
    DesignOptions dopt;
    dopt.utilization = 0.75;
    dopt.seed = a.seed + static_cast<std::uint64_t>(i);
    s.seconds["design.generate_s"] += timed_call(
        "bench.design.generate", run_id, i, nullptr,
        [&] { s.designs.push_back(make_design(kDesign, kArch, dopt)); });
    Design& d = s.designs.back();
    s.seconds["place.global_s"] += timed_call(
        "bench.place.global", run_id, i, nullptr, [&] { global_place(d); });
    s.seconds["place.legalize_s"] += timed_call(
        "bench.place.legalize", run_id, i, nullptr, [&] { legalize(d); });
    // The reference flow's baseline: wirelength-driven detailed placement
    // converged hard, as prepare_design() does.
    s.seconds["place.detailed_s"] +=
        timed_call("bench.place.detailed", run_id, i, nullptr, [&] {
          DetailedPlaceOptions dp;
          dp.max_passes = std::max(dp.max_passes, 10);
          dp.min_improve = std::min(dp.min_improve, 0.0005);
          detailed_place(d, dp);
        });
  }
  if (a.fleet) {
    s.seconds["dist.connect_s"] +=
        timed_call("bench.dist.connect", run_id, -1, nullptr, [&] {
          dist::CoordinatorOptions co;
          co.num_workers = kWorkers;
          s.fleet = std::make_unique<dist::Coordinator>(co);
          s.live_workers = s.fleet->connect_workers();
        });
  }
  s.total_s = now_s() - t0;
  return s;
}

/// The paper's operating point: U = {(20, 0, 4, 1)}, alpha = 1200 nm,
/// theta = 1%.
VM1OptOptions vm1_options(dist::Coordinator* fleet) {
  VM1OptOptions vo;
  vo.params.alpha = paper_alpha(1200.0);
  vo.sequence = {ParamSet{20, 0, 4, 1}};
  vo.theta = 0.01;
  vo.threads = kThreads;
  if (fleet) {
    vo.backend = DistBackend::kProcesses;
    vo.coordinator = fleet;
  }
  return vo;
}

/// Routes, then runs STA and power on the routed lengths, as the reference
/// flow's measure() does, timing each layer call separately.
Snapshot route_and_time(const Design& d, const std::string& route_call,
                        const char* route_span, std::uint64_t run_id, int di,
                        DesignResult& r) {
  Snapshot s;
  s.hpwl = total_hpwl(d);
  std::optional<Router> router;
  r.seconds[route_call + "_s"] +=
      timed_call(route_span, run_id, di, &r.calls[route_call], [&] {
        router.emplace(d, RouterOptions{});
        s.route = router->route();
      });
  std::vector<long> lengths(d.netlist().num_nets(), 0);
  for (int n = 0; n < d.netlist().num_nets(); ++n) {
    lengths[n] = router->net_length_dbu(n);
  }
  r.seconds["timing.sta_s"] += timed_call(
      "bench.timing.sta", run_id, di, &r.calls["timing.sta"], [&] {
        StaOptions o;
        o.net_lengths = lengths;
        run_sta(d, o);
      });
  r.seconds["timing.power_s"] += timed_call(
      "bench.timing.power", run_id, di, &r.calls["timing.power"], [&] {
        PowerOptions o;
        o.net_lengths = lengths;
        s.power_mw = compute_power(d, o).total_mw();
      });
  return s;
}

/// One pass: set-up, then the flow of every design. `flow_s` sums the
/// designs' flows. Between them the set-up-only samples run, so that they
/// spread over the run instead of sharing one moment's machine speed. The
/// peak resident set is taken over the flows only, so that it never holds
/// a sample's designs.
Pass run_pass(const Args& a, bool traced, std::vector<double>* setup_samples) {
  Pass pass;
  pass.traced = traced;
  const std::uint64_t run_id = a.seed;
  obs::ObsSpan pass_span("bench.pass");
  pass_span.arg("run", static_cast<double>(run_id));

  SetUp s = set_up(a, kDesigns);
  pass.setup = s.seconds;
  pass.setup_s = s.total_s;
  pass.live_workers = s.live_workers;

  // Flow: route, STA/power, vm1opt, re-route, STA/power per design.
  obs::reset_metrics();  // the histograms below cover this flow only
  {
    obs::ObsSpan span("bench.flow");
    span.arg("run", static_cast<double>(run_id));
    const VM1OptOptions vo = vm1_options(s.fleet.get());
    for (int i = 0; i < kDesigns; ++i) {
      Design& d = s.designs[static_cast<std::size_t>(i)];
      DesignResult r;
      r.seed = a.seed + static_cast<std::uint64_t>(i);
      r.baseline_violations = check_legality(d).size();
      reset_peak_rss();
      const double t_flow = now_s();
      r.init =
          route_and_time(d, "route.init", "bench.route.init", run_id, i, r);
      r.seconds["vm1opt_s"] += timed_call("bench.vm1opt", run_id, i,
                                          &r.calls["vm1opt"],
                                          [&] { r.opt = vm1opt(d, vo); });
      r.final =
          route_and_time(d, "route.final", "bench.route.final", run_id, i, r);
      pass.flow_s += now_s() - t_flow;
      pass.self_hwm_kb = std::max(pass.self_hwm_kb,
                                  status_kb("/proc/self/status", "VmHWM:"));
      r.final_violations = check_legality(d).size();
      pass.designs.push_back(std::move(r));
      if (setup_samples) {
        for (int k = i * a.setup_reps / kDesigns;
             k < (i + 1) * a.setup_reps / kDesigns; ++k) {
          setup_samples->push_back(set_up(a, kDesigns).total_s);
        }
      }
    }
  }
  pass.histograms = obs::snapshot_metrics().histograms;
  // Every sample's fleet has exited by now: these are the pass's workers.
  if (s.fleet) pass.fleet_hwm_kb = children_hwm_kb();
  return pass;
}

/// Re-runs vm1opt on a freshly set-up copy of the first design (with a
/// fresh fleet, so no worker memo carries over) and returns its result,
/// untimed: the run's own repeat of the load-sensitive layer.
DesignResult recheck(const Args& a) {
  SetUp s = set_up(a, 1);
  DesignResult r;
  r.seed = a.seed;
  Design& d = s.designs.front();
  const VM1OptOptions vo = vm1_options(s.fleet.get());
  timed_call("bench.recheck", a.seed, 0, &r.calls["vm1opt"],
             [&] { r.opt = vm1opt(d, vo); });
  r.final.hpwl = total_hpwl(d);
  r.final_violations = check_legality(d).size();
  return r;
}

void emit_snapshot(JsonWriter& j, const char* key, const Snapshot& s) {
  j.begin_object(key);
  j.field("hpwl", s.hpwl);
  j.field("rwl", s.route.rwl_dbu);
  j.field("via12", s.route.via12);
  j.field("dm1", s.route.num_dm1);
  j.field("drv", s.route.drv);
  j.field("unrouted", s.route.unrouted);
  j.field("power_mw", s.power_mw);
  j.end_object();
}

void emit_seconds(JsonWriter& j, const char* key,
                  const std::map<std::string, double>& m) {
  j.begin_object(key);
  for (const auto& [k, v] : m) j.field(k.c_str(), v);
  j.end_object();
}

void emit_design(JsonWriter& j, const char* key, const DesignResult& r) {
  const VM1OptStats& o = r.opt;
  j.begin_object(key);
  j.field("seed", static_cast<long>(r.seed));
  j.field("baseline_violations", static_cast<long>(r.baseline_violations));
  j.field("final_violations", static_cast<long>(r.final_violations));
  emit_seconds(j, "seconds", r.seconds);
  j.begin_object("calls");
  for (const auto& [call, deltas] : r.calls) {
    j.begin_object(call.c_str());
    for (const auto& [k, v] : deltas) j.field(k.c_str(), v);
    j.end_object();
  }
  j.end_object();
  emit_snapshot(j, "init", r.init);
  emit_snapshot(j, "final", r.final);
  j.field("objective_init", o.initial.value);
  j.field("objective_final", o.final.value);
  j.field("alignments_init", o.initial.alignments);
  j.field("alignments_final", o.final.alignments);
  j.field("windows", o.windows);
  j.field("outer_iterations", o.outer_iterations);
  j.field("milp_nodes", o.milp_nodes);
  j.begin_object("outcomes");
  j.field("solved", o.solved);
  j.field("fallback_rounding", o.fallback_rounding);
  j.field("fallback_greedy", o.fallback_greedy);
  j.field("rejected_audit", o.rejected_audit);
  j.field("kept", o.kept);
  j.field("faulted", o.faulted);
  j.field("skipped", o.skipped);
  j.field("cached_remote", o.cached_remote);
  j.end_object();
  j.begin_object("remote");
  j.field("requests", o.remote_requests);
  j.field("replies", o.remote_replies);
  j.field("retries", o.remote_retries);
  j.field("timeouts", o.remote_timeouts);
  j.field("local_fallbacks", o.remote_local_fallbacks);
  j.field("bytes_sent", o.wire_bytes_sent);
  j.field("bytes_received", o.wire_bytes_received);
  j.field("frames_sent", o.remote_frames_sent);
  j.field("cache_query_hits", o.remote_cache_query_hits);
  j.end_object();
  j.end_object();
}

void emit_pass(JsonWriter& j, const Pass& p) {
  j.begin_object();
  j.field("traced", p.traced);
  j.field("setup_s", p.setup_s);
  j.field("flow_s", p.flow_s);
  j.field("live_workers", p.live_workers);
  j.field("self_hwm_kb", p.self_hwm_kb);
  j.field("fleet_hwm_kb", p.fleet_hwm_kb);
  emit_seconds(j, "setup", p.setup);
  j.begin_object("histograms");
  for (const auto& [name, h] : p.histograms) {
    if (h.count == 0) continue;
    j.begin_object(name.c_str());
    j.field("count", static_cast<long>(h.count));
    j.field("sum", h.sum);
    j.field("p50", h.p50);
    j.field("p95", h.p95);
    j.field("p99", h.p99);
    j.end_object();
  }
  j.end_object();
  j.begin_array("designs");
  for (const DesignResult& r : p.designs) emit_design(j, nullptr, r);
  j.end_array();
  j.end_object();
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse_args(argc, argv);

  std::vector<double> setup_samples;
  std::vector<Pass> passes;
  passes.push_back(run_pass(a, /*traced=*/false, &setup_samples));
  std::optional<DesignResult> repeat;
  if (a.recheck) repeat = recheck(a);
  if (!a.trace_path.empty()) {
    obs::trace_start(a.trace_path, std::size_t{1} << 18);
    passes.push_back(run_pass(a, /*traced=*/true, nullptr));
    obs::trace_stop();
  }

  JsonWriter j(a.out_path);
  j.begin_object();
  j.field("seed", static_cast<long>(a.seed));
  j.field("threads", static_cast<long>(kThreads));
  j.field("workers", a.fleet ? kWorkers : 0);
  j.begin_array("setup_samples");
  for (double v : setup_samples) j.field(nullptr, v);
  j.end_array();
  j.begin_array("passes");
  for (const Pass& p : passes) emit_pass(j, p);
  j.end_array();
  if (repeat) emit_design(j, "recheck", *repeat);
  j.end_object();
  if (!j.ok()) return 1;
  return 0;
}
