// Host-time benchmark of the simulator.
//
// One process, one thread, a closed loop: each op is one call into a
// layer's public entry point (a map task on one execution path, or one
// cluster replay), timed on the host clock, and its modeled output is
// checked before the next op starts. Three workloads stress different
// layers:
//
//   task_text       GR HS WC HR map tasks on the CPU, GPU-optimised and
//                   GPU-baseline paths at the 16 KiB smoke split;
//   task_numeric    LR KM CL BS map tasks on the same paths;
//   cluster_replay  JobEngine::Run for every Table 2 app x policy on
//                   Cluster1 and Cluster2, plus multijob::RunWorkload under
//                   FIFO, Fair and Capacity. Task durations are constants,
//                   so nothing is interpreted.
//
// With --trace 0 the binary reports end-to-end host metrics; with
// --trace 1 it re-runs each op with the program's own trace sinks attached
// and times every layer separately (per-layer metrics). Host spans go
// through trace::ChromeTraceSink (--trace-out writes them).
//
// The last stdout line is one JSON document with the metrics, the op
// counts and the first errors; perfbench/run.py builds this binary and
// turns that line into the benchmark result.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <numeric>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/analyzer.h"
#include "apps/benchmark.h"
#include "common/json.h"
#include "common/prng.h"
#include "gpurt/cpu_task.h"
#include "gpurt/gpu_task.h"
#include "gpurt/job_program.h"
#include "gpurt/records.h"
#include "gpurt/sort.h"
#include "gpusim/cpu_model.h"
#include "gpusim/device.h"
#include "gpusim/kernel.h"
#include "hadoop/engine.h"
#include "hdfs/hdfs.h"
#include "minic/interp.h"
#include "minic/parser.h"
#include "multijob/workload.h"
#include "trace/chrome.h"
#include "trace/metrics.h"
#include "trace/timeseries.h"
#include "translator/translator.h"

namespace {

using namespace hd;

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

double Sum(const std::vector<double>& xs) {
  return std::accumulate(xs.begin(), xs.end(), 0.0);
}

double Mean(const std::vector<double>& xs) {
  return xs.empty() ? 0.0 : Sum(xs) / static_cast<double>(xs.size());
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

// ---------------------------------------------------------------------------
// Options

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // "full" is the measured configuration; "tiny" shrinks every workload
  // for the self-test.
  std::string scale = "full";
  int setup_reps = 3;
  std::string pins;        // modeled-output pins to check against
  std::string write_pins;  // write this run's modeled output here
  std::string trace_out;   // Chrome trace of the host spans (trace runs)
  // Self-test fault injection: "output" corrupts the first op's pairs,
  // "modeled" nudges the first op's modeled seconds by one ulp.
  std::string corrupt;
};

[[noreturn]] void Usage(const std::string& why) {
  std::cerr << "perfbench: " << why << "\n"
            << "usage: perfbench --workload task_text|task_numeric|"
               "cluster_replay --seed N --seconds S --trace 0|1\n"
               "       [--scale full|tiny] [--setup-reps N] [--pins FILE]\n"
               "       [--write-pins FILE] [--trace-out FILE]\n"
               "       [--corrupt output|modeled]\n";
  std::exit(2);
}

Options ParseArgs(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) Usage("missing value for " + a);
    const std::string v = argv[++i];
    if (a == "--workload") o.workload = v;
    else if (a == "--seed") o.seed = std::stoull(v);
    else if (a == "--seconds") o.seconds = std::stod(v);
    else if (a == "--trace") o.trace = v == "1";
    else if (a == "--scale") o.scale = v;
    else if (a == "--setup-reps") o.setup_reps = std::max(1, std::stoi(v));
    else if (a == "--pins") o.pins = v;
    else if (a == "--write-pins") o.write_pins = v;
    else if (a == "--trace-out") o.trace_out = v;
    else if (a == "--corrupt") o.corrupt = v;
    else Usage("unknown argument " + a);
  }
  if (o.workload != "task_text" && o.workload != "task_numeric" &&
      o.workload != "cluster_replay") {
    Usage("unknown workload '" + o.workload + "'");
  }
  if (o.scale != "full" && o.scale != "tiny") Usage("unknown scale");
  if (!o.corrupt.empty() && o.corrupt != "output" && o.corrupt != "modeled") {
    Usage("unknown corruption '" + o.corrupt + "'");
  }
  return o;
}

// ---------------------------------------------------------------------------
// Host spans: every timed layer call goes through Time(), which records a
// host-seconds span on the Chrome sink when tracing is on.

class HostSpans {
 public:
  explicit HostSpans(trace::Sink* sink) : sink_(sink), origin_(Now()) {
    if (sink_ != nullptr) {
      sink_->NameProcess(0, "perfbench (host seconds)");
      sink_->NameThread(track_, "ops");
    }
  }

  template <class F>
  double Time(std::string_view name, F&& fn) {
    const double t0 = Now();
    fn();
    const double dt = Now() - t0;
    if (sink_ != nullptr) {
      sink_->Span("host", name, track_, t0 - origin_, dt);
    }
    return dt;
  }

 private:
  trace::Sink* sink_;
  double origin_;
  trace::Track track_{0, 0};
};

// ---------------------------------------------------------------------------
// Run bookkeeping shared by the workloads.

struct Run {
  const Options& opt;
  HostSpans spans;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> errors;  // first few, for the report

  // End-to-end samples (plain ops only).
  std::vector<double> setup_s;
  std::vector<double> op_s;
  std::map<std::string, std::vector<double>> op_s_by_group;  // report only
  double input_bytes = 0.0;
  double sim_attempts = 0.0;

  // Per-layer samples: name -> host seconds (or counts) per call.
  std::map<std::string, std::vector<double>> layer;
  // Modeled output per distinct op key (first occurrence), and the pins.
  std::map<std::string, std::string> modeled;
  std::map<std::string, std::string> pins;
  bool pins_checked = false;
  bool corrupt_pending = false;

  Run(const Options& o, trace::Sink* host_sink)
      : opt(o), spans(host_sink), corrupt_pending(!o.corrupt.empty()) {}

  void Fail(const std::string& key, const std::string& why) {
    ++failed;
    if (errors.size() < 8) errors.push_back(key + ": " + why);
  }

  // Records the modeled output of op `key`. Every repeat of a key must
  // reproduce its first occurrence exactly, traced or not, and the first
  // occurrence must match the pins when the run checks them.
  bool CheckModeled(const std::string& key, const std::string& text) {
    auto [it, inserted] = modeled.emplace(key, text);
    if (!inserted && it->second != text) {
      Fail(key, "modeled output differs from this run's first occurrence");
      return false;
    }
    if (pins_checked) {
      auto p = pins.find(key);
      if (p == pins.end()) {
        Fail(key, "no pinned modeled output for this op");
        return false;
      }
      if (p->second != text) {
        Fail(key, "modeled output differs from the pin: got " + text +
                      " want " + p->second);
        return false;
      }
    }
    return true;
  }
};

std::string Num(double v) { return json::FormatNumber(v); }

// Pins file: {"config": "...", "ops": {"key": "modeled text", ...}}.
void LoadPins(Run& run, const std::string& config) {
  if (run.opt.pins.empty()) return;
  std::ifstream in(run.opt.pins);
  if (!in) {
    std::cerr << "perfbench: cannot read pins " << run.opt.pins
              << "\n";
    std::exit(2);
  }
  std::stringstream ss;
  ss << in.rdbuf();
  const json::Value doc = json::Parse(ss.str());
  const json::Value* cfg = doc.Find("config");
  const json::Value* ops = doc.Find("ops");
  if (cfg == nullptr || ops == nullptr || !ops->is_object()) {
    std::cerr << "perfbench: malformed pins " << run.opt.pins << "\n";
    std::exit(2);
  }
  if (cfg->string != config) {
    std::cerr << "perfbench: pins " << run.opt.pins
              << " were written for '" << cfg->string << "', this run is '"
              << config << "'\n";
    std::exit(2);
  }
  for (const auto& [k, v] : ops->object) run.pins[k] = v.string;
  run.pins_checked = true;
}

void WritePins(const Run& run, const std::string& config) {
  if (run.opt.write_pins.empty()) return;
  std::ofstream out(run.opt.write_pins);
  json::Writer w(out);
  w.BeginObject();
  w.Key("config").String(config);
  w.Key("ops").BeginObject();
  for (const auto& [k, v] : run.modeled) w.Key(k).String(v);
  w.EndObject();
  w.EndObject();
  out << "\n";
}

// ---------------------------------------------------------------------------
// Task workloads

// The Cluster1 machine models every task runs on (the Fig. 5 defaults).
const gpusim::CpuConfig kCpu = gpusim::CpuConfig::XeonE5_2680();
const gpusim::DeviceConfig kDevice = gpusim::DeviceConfig::TeslaK40();

enum class Path { kCpu, kGpu, kGpuBaseline };
constexpr Path kPaths[] = {Path::kCpu, Path::kGpu, Path::kGpuBaseline};

const char* PathName(Path p) {
  switch (p) {
    case Path::kCpu: return "cpu";
    case Path::kGpu: return "gpu";
    case Path::kGpuBaseline: return "gpu_baseline";
  }
  return "?";
}

struct TaskWorkload {
  std::vector<std::string> apps;
  std::int64_t split_bytes = 0;
  int splits_per_app = 0;  // distinct inputs cycled through per app
};

TaskWorkload TaskWorkloadFor(const Options& opt) {
  const bool tiny = opt.scale == "tiny";
  TaskWorkload w;
  if (opt.workload == "task_text") {
    w.apps = {"GR", "HS", "WC", "HR"};
    w.split_bytes = tiny ? 2 << 10 : 16 << 10;  // Fig. 5 smoke split
    w.splits_per_app = tiny ? 1 : 8;
  } else {
    w.apps = {"LR", "KM", "CL", "BS"};
    // KM, CL and BS take about 4 s per op at the 192 KiB measured split;
    // 16 KiB keeps several rounds of every app in one run.
    w.split_bytes = tiny ? 2 << 10 : 16 << 10;
    w.splits_per_app = tiny ? 1 : 2;
  }
  return w;
}

struct AppCase {
  const apps::Benchmark* bench = nullptr;
  gpurt::JobProgram job;
  int reducers = 0;
  std::vector<std::string> splits;
  std::vector<std::vector<gpurt::KvPair>> golden;
};

std::uint64_t SplitSeed(std::uint64_t run_seed, std::size_t app, int k) {
  return SplitMix64(run_seed * 0x100000001B3ULL + app * 131 +
                    static_cast<std::uint64_t>(k));
}

// Input generation, CompileJob of every program and the golden outputs.
// Traced runs also time the frontend, analysis and translation separately.
std::vector<AppCase> SetupTasks(Run& run, const TaskWorkload& w) {
  std::vector<AppCase> cases;
  double gen = 0.0, golden = 0.0, compile = 0.0;
  double parse = 0.0, analyze = 0.0, translate = 0.0;
  for (std::size_t a = 0; a < w.apps.size(); ++a) {
    AppCase c;
    c.bench = &apps::GetBenchmark(w.apps[a]);
    const apps::Benchmark& b = *c.bench;
    c.reducers = b.map_only ? 0 : b.num_reducers();
    if (run.opt.trace) {
      const std::string* sources[] = {&b.map_source, &b.combine_source,
                                      &b.reduce_source};
      for (const std::string* src : sources) {
        if (src->empty()) continue;
        parse += run.spans.Time("minic.parse", [&] { minic::Parse(*src); });
      }
      for (const std::string* src : {&b.map_source, &b.combine_source}) {
        if (src->empty()) continue;
        analyze += run.spans.Time("analysis.analyze",
                                  [&] { analysis::AnalyzeSource(*src); });
        translate += run.spans.Time("translator.translate",
                                    [&] { translator::Translate(*src); });
      }
    }
    compile += run.spans.Time("gpurt.compile", [&] {
      c.job = gpurt::CompileJob(b.map_source, b.combine_source,
                                b.reduce_source);
    });
    gen += run.spans.Time("apps.generate", [&] {
      for (int k = 0; k < w.splits_per_app; ++k) {
        c.splits.push_back(
            b.generate(w.split_bytes, SplitSeed(run.opt.seed, a, k)));
      }
    });
    golden += run.spans.Time("apps.golden", [&] {
      for (const std::string& s : c.splits) c.golden.push_back(b.golden({s}));
    });
    cases.push_back(std::move(c));
  }
  run.layer["apps.generate_s"].push_back(gen);
  run.layer["apps.golden_s"].push_back(golden);
  run.layer["gpurt.compile_s"].push_back(compile);
  if (run.opt.trace) {
    run.layer["minic.parse_s"].push_back(parse);
    run.layer["analysis.analyze_s"].push_back(analyze);
    run.layer["translator.translate_s"].push_back(translate);
  }
  return cases;
}

gpurt::GpuTaskOptions GpuOptions(Path p) {
  gpurt::GpuTaskOptions o;
  if (p == Path::kGpuBaseline) {  // every optimisation off (Fig. 5)
    o.vectorize_map = false;
    o.vectorize_combine = false;
    o.use_texture = false;
    o.record_stealing = false;
    o.aggregate_before_sort = false;
  }
  return o;
}

// Runs one map task on `path`; returns the host seconds of the Run call.
double RunTask(Run& run, const AppCase& c, Path path, const std::string& split,
               trace::Sink* sink, trace::Registry* metrics,
               gpurt::MapTaskResult* out) {
  const std::string span = std::string("gpurt.") + PathName(path) + "_task";
  if (path == Path::kCpu) {
    gpurt::CpuTaskOptions o;
    o.num_reducers = c.reducers;
    o.sink = sink;
    o.metrics = metrics;
    gpurt::CpuMapTask task(c.job, kCpu, o);
    return run.spans.Time(span, [&] { *out = task.Run(split); });
  }
  gpusim::GpuDevice device(kDevice);
  gpurt::GpuTaskOptions o = GpuOptions(path);
  o.num_reducers = c.reducers;
  o.sink = sink;
  o.metrics = metrics;
  gpurt::GpuMapTask task(c.job, &device, o);
  return run.spans.Time(span, [&] { *out = task.Run(split); });
}

// The job output of one task: each partition sorted and reduced (or kept,
// for map-only jobs), concatenated.
std::vector<gpurt::KvPair> Finalize(Run& run, const AppCase& c,
                                    const gpurt::MapTaskResult& r,
                                    double* reduce_s) {
  std::vector<gpurt::KvPair> out;
  for (const auto& part : r.partitions) {
    std::vector<gpurt::KvPair> merged = part;
    gpurt::SortPairsByKey(&merged);
    if (c.job.reduce != nullptr) {
      gpurt::ReduceResult rr;
      const double t = run.spans.Time("gpurt.reduce", [&] {
        rr = gpurt::RunReduce(*c.job.reduce, merged, kCpu);
      });
      if (reduce_s != nullptr) *reduce_s += t;
      merged = std::move(rr.output);
    }
    out.insert(out.end(), std::make_move_iterator(merged.begin()),
               std::make_move_iterator(merged.end()));
  }
  return out;
}

std::string ModeledTask(const gpurt::MapTaskResult& r) {
  const gpurt::PhaseBreakdown& p = r.phases;
  const gpurt::TaskStats& s = r.stats;
  std::ostringstream os;
  for (double v : {p.input_read, p.record_count, p.map, p.aggregate, p.sort,
                   p.combine, p.output_write, s.map_compute_cycles,
                   s.map_mem_cycles, s.map_divergence, s.map_coalescing}) {
    os << Num(v) << ' ';
  }
  for (std::int64_t v :
       {s.records, s.map_kv_pairs, s.out_kv_pairs, s.allocated_slots,
        s.whitespace_slots, s.sort_elements, s.texture_hits,
        s.texture_misses, s.shared_atomics, s.global_atomics,
        s.map_mem_requests, s.map_bytes_requested, s.shared_bank_conflicts,
        s.atomic_conflicts, s.output_bytes}) {
    os << v << ' ';
  }
  std::string text = os.str();
  text.pop_back();
  return text;
}

// FNV-1a over every partition's pairs, with lengths so that no two
// different outputs serialise alike.
std::uint64_t Digest(const std::vector<std::vector<gpurt::KvPair>>& parts) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](std::string_view bytes) {
    for (unsigned char ch : bytes) h = (h ^ ch) * 0x100000001b3ULL;
  };
  auto mix_len = [&mix](std::size_t n) {
    mix(std::string_view(reinterpret_cast<const char*>(&n), sizeof n));
  };
  for (const auto& part : parts) {
    mix_len(part.size());
    for (const gpurt::KvPair& kv : part) {
      mix_len(kv.key.size());
      mix(kv.key);
      mix_len(kv.value.size());
      mix(kv.value);
    }
  }
  return h;
}

// Output checks of the task workloads: every op's pairs are reduced and
// compared with the golden reference (tolerance only where the app's
// output is not exact), the three paths must agree, and an op whose pairs
// have the digest of an already-verified output of the same op is
// accepted as is. Keeping digests, not outputs, keeps the checker out of
// peak_rss_mb.
class TaskChecker {
 public:
  bool Check(Run& run, const AppCase& c, std::size_t app, int k, Path path,
             const std::string& key, const gpurt::MapTaskResult& r) {
    const std::uint64_t digest = Digest(r.partitions);
    auto v = verified_.find(key);
    if (v != verified_.end() && v->second == digest) return true;
    const std::vector<gpurt::KvPair> out = Finalize(run, c, r, nullptr);
    std::string err = apps::CompareWithGolden(*c.bench, c.golden[k], out);
    if (!err.empty()) {
      run.Fail(key, "output differs from golden: " + err);
      return false;
    }
    const auto other_key = std::make_pair(app, k);
    auto o = cross_.find(other_key);
    if (o == cross_.end()) {
      cross_.emplace(other_key, out);
    } else {
      err = apps::CompareWithGolden(*c.bench, o->second, out);
      if (!err.empty()) {
        run.Fail(key, std::string("paths disagree (") + PathName(path) +
                          "): " + err);
        return false;
      }
    }
    verified_[key] = digest;
    return true;
  }

 private:
  std::map<std::string, std::uint64_t> verified_;
  std::map<std::pair<std::size_t, int>, std::vector<gpurt::KvPair>> cross_;
};

// Bare interpretation of the map filter over one split with three hook
// sets, plus the gpurt primitives the task paths call around it.
void MeasureLayers(Run& run, const AppCase& c, const std::string& split,
                   bool first_time) {
  const minic::TranslationUnit& unit = *c.job.map.unit;
  minic::CountingHooks counting;
  std::string map_out;
  run.layer["minic.interp_s"].push_back(run.spans.Time("minic.interp", [&] {
    minic::TextIoEnv io(split);
    minic::Interp interp(unit, &io, &counting);
    interp.RunMain();
    map_out = io.TakeOutput();
  }));
  const auto ops = static_cast<double>(counting.total_ops());
  run.layer["minic.interp_ops_per_run"].push_back(ops);
  if (first_time) run.layer["minic.interp_ops"].push_back(ops);

  run.layer["gpusim.cpu_hooks_run_s"].push_back(
      run.spans.Time("gpusim.cpu_hooks", [&] {
        gpusim::CpuTimingHooks hooks(kCpu);
        minic::TextIoEnv io(split);
        minic::Interp interp(unit, &io, &hooks);
        interp.RunMain();
      }));
  run.layer["gpusim.lane_hooks_run_s"].push_back(
      run.spans.Time("gpusim.lane_hooks", [&] {
        gpusim::KernelSim kernel(kDevice, 1, 1, "bare");
        minic::TextIoEnv io(split);
        minic::Interp::Options o;
        o.default_space = minic::MemSpace::kDeviceLocal;
        minic::Interp interp(unit, &io, &kernel.Hooks(0, 0), o);
        interp.RunMain();
      }));

  run.layer["gpurt.locate_s"].push_back(run.spans.Time(
      "gpurt.locate", [&] { gpurt::LocateRecords(split); }));
  std::vector<gpurt::KvPair> pairs = gpurt::ParseKvText(map_out);
  run.layer["gpurt.sort_s"].push_back(run.spans.Time(
      "gpurt.sort", [&] { gpurt::SortPairsByKey(&pairs); }));
}

void RunTaskWorkload(Run& run, std::ostream& report) {
  const TaskWorkload w = TaskWorkloadFor(run.opt);
  std::ostringstream cfg;
  cfg << run.opt.workload << " scale=" << run.opt.scale
      << " split_bytes=" << w.split_bytes << " splits=" << w.splits_per_app
      << " seed=" << run.opt.seed;
  LoadPins(run, cfg.str());

  std::vector<AppCase> cases;
  for (int rep = 0; rep < run.opt.setup_reps; ++rep) {
    const double t0 = Now();
    cases = SetupTasks(run, w);
    run.setup_s.push_back(Now() - t0);
  }
  report << "config: " << cfg.str() << "\n";

  TaskChecker checker;
  std::set<std::string> measured_splits;
  // The program's own modeled-time trace channel in traced ops: every
  // instrumentation site runs, nothing is kept, so long replays stay small.
  trace::NullSink program_sink;
  double traced_s = 0.0, plain_s = 0.0;
  const double start = Now();
  // Whole rounds (every app on every path) until the time is up, and at
  // least one full cycle over every app's distinct splits.
  for (int round = 0;; ++round) {
    if (round >= w.splits_per_app && Now() - start >= run.opt.seconds) break;
    const int k = round % w.splits_per_app;
    for (std::size_t a = 0; a < cases.size(); ++a) {
      const AppCase& c = cases[a];
      const std::string& split = c.splits[static_cast<std::size_t>(k)];
      const std::string split_key = c.bench->id + "/" + std::to_string(k);
      if (run.opt.trace) {
        try {
          MeasureLayers(run, c, split,
                        measured_splits.insert(split_key).second);
        } catch (const std::exception& e) {
          ++run.attempted;
          run.Fail(split_key + "/bare", e.what());
        }
      }
      for (Path path : kPaths) {
        const std::string key = split_key + "/" + PathName(path);
        ++run.attempted;
        try {
          gpurt::MapTaskResult r;
          const double dt = RunTask(run, c, path, split, nullptr, nullptr, &r);
          if (run.corrupt_pending && run.opt.corrupt == "output") {
            for (auto& part : r.partitions) {
              if (part.empty()) continue;
              part[0].key = "corrupt:" + part[0].key;
              break;
            }
            run.corrupt_pending = false;
          }
          if (run.corrupt_pending && run.opt.corrupt == "modeled") {
            r.phases.map = std::nextafter(r.phases.map, 1e300);
            run.corrupt_pending = false;
          }
          run.op_s.push_back(dt);
          run.op_s_by_group[c.bench->id + "/" + PathName(path)].push_back(dt);
          run.input_bytes += static_cast<double>(split.size());
          run.sim_attempts += 1.0;
          run.layer[std::string("gpurt.") + PathName(path) + "_task_s"]
              .push_back(dt);
          const std::string modeled = ModeledTask(r);
          const bool first = run.modeled.count(key) == 0;
          if (!run.CheckModeled(key, modeled)) continue;
          if (!checker.Check(run, c, a, k, path, key, r)) continue;
          if (first) {
            run.layer["gpurt.records"].push_back(
                static_cast<double>(r.stats.records));
            run.layer["gpurt.kv_pairs"].push_back(
                static_cast<double>(r.stats.map_kv_pairs));
            run.layer["gpurt.sort_elements"].push_back(
                static_cast<double>(r.stats.sort_elements));
            run.layer["gpurt.modeled_s"].push_back(r.phases.Total());
          }
          if (!run.opt.trace) continue;
          if (path == Path::kCpu && c.job.reduce != nullptr) {
            double reduce_s = 0.0;
            Finalize(run, c, r, &reduce_s);
            run.layer["gpurt.reduce_s"].push_back(reduce_s);
          }
          // The same op with the program's trace sink and metrics
          // registry attached: modeled output must not move.
          ++run.attempted;
          trace::Registry registry;
          gpurt::MapTaskResult traced;
          traced_s += RunTask(run, c, path, split, &program_sink, &registry,
                              &traced);
          plain_s += dt;
          run.CheckModeled(key, ModeledTask(traced));
        } catch (const std::exception& e) {
          run.Fail(key, e.what());
        }
      }
    }
  }
  if (run.opt.trace) {
    run.layer["trace.overhead_ratio"].push_back(
        plain_s > 0.0 ? traced_s / plain_s : 0.0);
  }
  WritePins(run, cfg.str());
}

// ---------------------------------------------------------------------------
// Cluster replay

// Representative CPU/GPU map-task seconds per 256 MiB split, fixed here so
// the replay interprets nothing (the calibration bench/fig4a measures).
struct AppTiming {
  const char* id;
  double cpu_sec;
  double gpu_sec;
};
constexpr AppTiming kAppTimings[] = {
    {"GR", 14.0, 3.71}, {"HS", 15.0, 3.96}, {"WC", 22.0, 5.21},
    {"HR", 18.0, 2.07}, {"LR", 20.0, 3.94}, {"KM", 26.0, 5.14},
    {"CL", 24.0, 3.09}, {"BS", 30.0, 0.80},
};
// KM has no Cluster2 row in Table 2 (it does not fit the M2090); the
// replay still submits it there so every GPU attempt fails (§7.3).
constexpr int kKmCluster2Maps = 3200;
constexpr std::int64_t kSplitBytes = 256LL << 20;

struct ClusterSpec {
  const char* name;
  hadoop::ClusterConfig config;
  int replication;
};

std::vector<ClusterSpec> Clusters() {
  ClusterSpec c1{"c1", {}, 3};
  c1.config.num_slaves = 48;
  c1.config.map_slots_per_node = 20;
  c1.config.reduce_slots_per_node = 2;
  c1.config.gpus_per_node = 1;
  c1.config.network_bytes_per_sec = 6.0e9;  // FDR InfiniBand
  ClusterSpec c2{"c2", {}, 1};
  c2.config.num_slaves = 32;
  c2.config.map_slots_per_node = 4;
  c2.config.reduce_slots_per_node = 2;
  c2.config.gpus_per_node = 1;
  c2.config.network_bytes_per_sec = 2.0e9;  // QDR InfiniBand
  return {c1, c2};
}

struct ClusterOp {
  std::string key;
  std::size_t cluster = 0;
  const apps::Benchmark* bench = nullptr;  // null: a multijob workload
  sched::Policy policy = sched::Policy::kTail;
  multijob::SchedulerKind scheduler = multijob::SchedulerKind::kFifo;
  int num_maps = 0;
};

struct ClusterSetup {
  std::vector<ClusterSpec> clusters;
  std::vector<std::unique_ptr<hdfs::Hdfs>> fs;  // one per cluster
  std::vector<ClusterOp> ops;
  std::vector<multijob::AppTemplate> mix;
  hadoop::ClusterConfig multijob_cluster;
};

ClusterSetup SetupCluster(Run& run) {
  const bool tiny = run.opt.scale == "tiny";
  ClusterSetup s;
  s.clusters = Clusters();
  double put = 0.0;
  for (std::size_t ci = 0; ci < s.clusters.size(); ++ci) {
    const ClusterSpec& cs = s.clusters[ci];
    hdfs::HdfsConfig hc;
    hc.block_size = kSplitBytes;
    hc.replication = cs.replication;
    auto fs = std::make_unique<hdfs::Hdfs>(
        cs.config.num_slaves, hc, SplitMix64(run.opt.seed * 7 + ci));
    for (const AppTiming& t : kAppTimings) {
      const apps::Benchmark& b = apps::GetBenchmark(t.id);
      const apps::ClusterParams& p = ci == 0 ? b.cluster1 : b.cluster2;
      int maps = p.map_tasks > 0 ? p.map_tasks : kKmCluster2Maps;
      if (tiny) maps = std::max(8, maps / 100);
      put += run.spans.Time("hdfs.put", [&] {
        fs->PutSyntheticFile(std::string("/in/") + t.id, maps, kSplitBytes);
      });
      for (sched::Policy policy : {sched::Policy::kCpuOnly,
                                   sched::Policy::kGpuFirst,
                                   sched::Policy::kTail}) {
        ClusterOp op;
        op.key = std::string(cs.name) + "/" + t.id + "/" +
                 sched::PolicyName(policy);
        op.cluster = ci;
        op.bench = &b;
        op.policy = policy;
        op.num_maps = maps;
        s.ops.push_back(op);
      }
    }
    s.fs.push_back(std::move(fs));
  }
  run.layer["hdfs.put_s"].push_back(put);
  // The multijob_throughput slice: 8 slaves x (4 CPU slots + 1 GPU).
  s.multijob_cluster.num_slaves = tiny ? 2 : 8;
  s.multijob_cluster.map_slots_per_node = 4;
  s.multijob_cluster.reduce_slots_per_node = 2;
  s.multijob_cluster.gpus_per_node = 1;
  s.mix = multijob::Table2Mix(tiny ? 4 : 24, 2);
  for (multijob::SchedulerKind sk :
       {multijob::SchedulerKind::kFifo, multijob::SchedulerKind::kFair,
        multijob::SchedulerKind::kCapacity}) {
    ClusterOp op;
    op.key = std::string("multijob/") + multijob::SchedulerKindName(sk);
    op.scheduler = sk;
    s.ops.push_back(op);
  }
  return s;
}

hadoop::CalibratedTaskSource::Params ReplayParams(const ClusterOp& op,
                                                  std::uint64_t seed) {
  const apps::Benchmark& b = *op.bench;
  const apps::ClusterParams& p = op.cluster == 0 ? b.cluster1 : b.cluster2;
  hadoop::CalibratedTaskSource::Params params;
  for (const AppTiming& t : kAppTimings) {
    if (b.id == t.id) {
      params.cpu_task_sec = t.cpu_sec;
      params.gpu_task_sec = t.gpu_sec;
    }
  }
  params.num_maps = op.num_maps;
  params.num_reducers = p.reduce_tasks;
  params.variation = 0.10;
  params.map_output_bytes = b.io_intensive ? 48 << 20 : 8 << 20;
  params.reduce_sec = 8.0;
  params.gpu_supported = p.available;
  params.seed = SplitMix64(seed ^ std::hash<std::string>{}(op.key));
  return params;
}

std::string ModeledJob(const hadoop::JobResult& r) {
  std::ostringstream os;
  os << Num(r.makespan_sec) << ' ' << Num(r.map_phase_end_sec) << ' '
     << r.cpu_tasks << ' ' << r.gpu_tasks << ' ' << r.gpu_failures << ' '
     << r.nonlocal_tasks << ' ' << r.gpu_demotions << ' '
     << r.total_map_output_bytes;
  return os.str();
}

std::string ModeledWorkload(const multijob::WorkloadMetrics& m) {
  std::ostringstream os;
  os << Num(m.makespan_sec) << ' ' << m.jobs.size() << ' '
     << m.TotalCpuTasks() << ' ' << m.TotalGpuTasks() << ' '
     << m.gpu_bounces;
  for (const multijob::JobStats& j : m.jobs) os << ' ' << Num(j.finish_sec);
  return os.str();
}

// Total DES events from the telemetry's des.events_per_sec rate series.
double DesEvents(const trace::TimeSeries& ts) {
  const trace::TimeSeries::Series* s = ts.Find("des.events_per_sec");
  if (s == nullptr) return 0.0;
  double events = 0.0;
  for (const auto& [t, v] : s->points) events += v * ts.sample_interval_sec();
  return events;
}

struct ClusterOutcome {
  std::string modeled;
  double makespan = 0.0;
  double attempts = 0.0;
  double jobs = 0.0;
};

// One replay op; `traced` attaches the engine's trace sink, metrics
// registry and time series.
double RunClusterOp(Run& run, const ClusterSetup& s, const ClusterOp& op,
                    bool traced, trace::Sink* sink, ClusterOutcome* out,
                    double* des_events) {
  trace::Registry registry;
  trace::TimeSeries ts;
  auto attach = [&](hadoop::ClusterConfig& c) {
    if (!traced) return;
    c.sink = sink;
    c.metrics = &registry;
    c.timeseries = &ts;
  };
  double dt = 0.0;
  if (op.bench != nullptr) {
    hadoop::ClusterConfig c = s.clusters[op.cluster].config;
    attach(c);
    hadoop::CalibratedTaskSource source(ReplayParams(op, run.opt.seed));
    hadoop::JobResult r;
    dt = run.spans.Time("hadoop.job", [&] {
      hadoop::JobEngine engine(c, &source, op.policy, s.fs[op.cluster].get(),
                               std::string("/in/") + op.bench->id);
      r = engine.Run();
    });
    out->modeled = ModeledJob(r);
    out->makespan = r.makespan_sec;
    out->attempts = static_cast<double>(r.cpu_tasks + r.gpu_tasks +
                                        r.gpu_failures);
  } else {
    hadoop::ClusterConfig c = s.multijob_cluster;
    attach(c);
    multijob::WorkloadSpec spec;
    spec.mode = multijob::WorkloadSpec::Mode::kOpenPoisson;
    spec.num_jobs = run.opt.scale == "tiny" ? 4 : 40;
    spec.arrival_rate_per_sec = 0.04;
    spec.policy = sched::Policy::kTail;
    spec.seed = SplitMix64(run.opt.seed + 0x5eed);
    multijob::WorkloadMetrics m;
    dt = run.spans.Time("multijob.workload", [&] {
      m = multijob::RunWorkload(c, op.scheduler, s.mix, spec);
    });
    out->modeled = ModeledWorkload(m);
    out->makespan = m.makespan_sec;
    double attempts = 0.0;
    for (const multijob::JobStats& j : m.jobs) {
      attempts += static_cast<double>(j.result.cpu_tasks +
                                      j.result.gpu_tasks +
                                      j.result.gpu_failures);
    }
    out->attempts = attempts;
    out->jobs = static_cast<double>(m.jobs.size());
  }
  if (traced && des_events != nullptr) *des_events = DesEvents(ts);
  return dt;
}

void RunClusterWorkload(Run& run, std::ostream& report) {
  std::ostringstream cfg;
  cfg << run.opt.workload << " scale=" << run.opt.scale
      << " seed=" << run.opt.seed;
  LoadPins(run, cfg.str());

  ClusterSetup s;
  for (int rep = 0; rep < run.opt.setup_reps; ++rep) {
    const double t0 = Now();
    s = SetupCluster(run);
    run.setup_s.push_back(Now() - t0);
  }
  report << "config: " << cfg.str() << "\n";

  trace::NullSink program_sink;
  double traced_s = 0.0, plain_s = 0.0;
  const double start = Now();
  for (int round = 0;; ++round) {
    if (round >= 1 && Now() - start >= run.opt.seconds) break;
    for (const ClusterOp& op : s.ops) {
      ++run.attempted;
      try {
        ClusterOutcome o;
        const double dt = RunClusterOp(run, s, op, false, nullptr, &o,
                                       nullptr);
        if (run.corrupt_pending && run.opt.corrupt == "modeled") {
          o.modeled += " corrupt";
          run.corrupt_pending = false;
        }
        run.op_s.push_back(dt);
        run.op_s_by_group[op.key.substr(0, op.key.rfind('/'))].push_back(dt);
        run.sim_attempts += o.attempts;
        run.input_bytes += o.attempts * static_cast<double>(kSplitBytes);
        const bool first = run.modeled.count(op.key) == 0;
        if (!run.CheckModeled(op.key, o.modeled)) continue;
        if (op.bench != nullptr) {
          run.layer["hadoop.job_s"].push_back(dt);
          run.layer["hadoop.us_per_attempt"].push_back(dt * 1e6 / o.attempts);
        } else {
          run.layer["multijob.workload_s"].push_back(dt);
        }
        if (first) {
          run.layer["hadoop.modeled_makespan_s"].push_back(o.makespan);
          if (op.bench != nullptr) {
            run.layer["hadoop.attempts"].push_back(o.attempts);
          } else {
            run.layer["multijob.jobs"].push_back(o.jobs);
          }
        }
        if (!run.opt.trace) continue;
        ++run.attempted;
        ClusterOutcome traced;
        double events = 0.0;
        traced_s += RunClusterOp(run, s, op, true, &program_sink, &traced,
                                 &events);
        plain_s += dt;
        run.CheckModeled(op.key, traced.modeled);
        if (first) run.layer["des.events"].push_back(events);
        if (events > 0.0) {
          run.layer["des.ns_per_event"].push_back(dt * 1e9 / events);
        }
      } catch (const std::exception& e) {
        run.Fail(op.key, e.what());
      }
    }
  }
  if (run.opt.trace) {
    run.layer["trace.overhead_ratio"].push_back(
        plain_s > 0.0 ? traced_s / plain_s : 0.0);
  }
  WritePins(run, cfg.str());
}

// ---------------------------------------------------------------------------
// Result

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::int64_t samples;
  std::string note;
};

std::vector<Metric> EndToEnd(const Run& run) {
  std::vector<double> ops = run.op_s;
  std::sort(ops.begin(), ops.end());
  const auto n = static_cast<std::int64_t>(ops.size());
  // The highest percentile with at least ten samples beyond it.
  double tail = ops.empty() ? 0.0 : ops.back();
  std::string tail_note = "max (fewer than 11 samples)";
  if (n >= 11) {
    tail = ops[static_cast<std::size_t>(n - 11)];
    std::ostringstream os;
    os << "p" << Num(std::floor(1000.0 * static_cast<double>(n - 10) /
                                static_cast<double>(n)) /
                     10.0);
    tail_note = os.str();
  }
  const double busy = Sum(run.op_s);
  return {
      {"setup_s", Median(run.setup_s), "s",
       static_cast<std::int64_t>(run.setup_s.size()), "median of set-ups"},
      {"op_s_p50", Median(run.op_s), "s", n, "median"},
      {"op_s_tail", tail, "s", n, tail_note},
      {"input_mb_per_s", busy > 0 ? run.input_bytes / 1e6 / busy : 0.0,
       "MB/s", n, "input bytes read by the simulated tasks / op seconds"},
      {"sim_attempts_per_s", busy > 0 ? run.sim_attempts / busy : 0.0, "1/s",
       n, "simulated map attempts / op seconds"},
      {"peak_rss_mb", PeakRssMb(), "MB", 1, "getrusage ru_maxrss"},
  };
}

std::vector<Metric> PerLayer(const Run& run) {
  auto get = [&](const std::string& k) -> const std::vector<double>& {
    static const std::vector<double> kEmpty;
    auto it = run.layer.find(k);
    return it == run.layer.end() ? kEmpty : it->second;
  };
  auto count = [&](const std::string& k) {
    return static_cast<std::int64_t>(get(k).size());
  };
  std::vector<Metric> m;
  auto mean = [&](const std::string& name, const std::string& src,
                  const char* note) {
    m.push_back({name, Mean(get(src)), "s", count(src), note});
  };
  auto total = [&](const std::string& name, const std::string& unit,
                   const char* note) {
    m.push_back({name, Sum(get(name)), unit, count(name), note});
  };
  for (const char* k : {"minic.parse_s", "analysis.analyze_s",
                        "translator.translate_s", "gpurt.compile_s",
                        "apps.generate_s", "apps.golden_s", "hdfs.put_s"}) {
    m.push_back({k, Median(get(k)), "s", count(k), "median per set-up"});
  }
  const double interp = Mean(get("minic.interp_s"));
  const double cpu_run = Mean(get("gpusim.cpu_hooks_run_s"));
  const double lane_run = Mean(get("gpusim.lane_hooks_run_s"));
  const double gpu_task = Mean(get("gpurt.gpu_task_s"));
  mean("minic.interp_s", "minic.interp_s", "mean per bare run");
  total("minic.interp_ops", "count", "sum over distinct splits");
  const double all_ops = Sum(get("minic.interp_ops_per_run"));
  const double all_s = Sum(get("minic.interp_s"));
  m.push_back({"minic.interp_mops_per_s", all_s > 0 ? all_ops / all_s / 1e6 : 0.0,
               "Mop/s", count("minic.interp_s"), "bare runs"});
  m.push_back({"gpusim.cpu_hooks_s",
               count("gpusim.cpu_hooks_run_s") ? cpu_run - interp : 0.0, "s",
               count("gpusim.cpu_hooks_run_s"),
               "CpuTimingHooks bare run minus counting run"});
  m.push_back({"gpusim.lane_hooks_s",
               count("gpusim.lane_hooks_run_s") ? lane_run - interp : 0.0,
               "s", count("gpusim.lane_hooks_run_s"),
               "one KernelSim lane bare run minus counting run"});
  mean("gpurt.cpu_task_s", "gpurt.cpu_task_s", "mean per op");
  mean("gpurt.gpu_task_s", "gpurt.gpu_task_s", "mean per op");
  mean("gpurt.gpu_baseline_task_s", "gpurt.gpu_baseline_task_s",
       "mean per op");
  m.push_back({"gpurt.gpu_driver_self_s",
               count("gpurt.gpu_task_s") ? gpu_task - lane_run : 0.0, "s",
               count("gpurt.gpu_task_s"), "gpu task minus lane-hooks run"});
  mean("gpurt.locate_s", "gpurt.locate_s", "mean per split");
  mean("gpurt.sort_s", "gpurt.sort_s", "mean per split");
  mean("gpurt.reduce_s", "gpurt.reduce_s", "mean per CPU op");
  total("gpurt.records", "count", "sum over distinct ops");
  total("gpurt.kv_pairs", "count", "sum over distinct ops");
  total("gpurt.sort_elements", "count", "sum over distinct ops");
  total("gpurt.modeled_s", "s", "modeled seconds, sum over distinct ops");
  mean("hadoop.job_s", "hadoop.job_s", "mean per JobEngine op");
  total("hadoop.attempts", "count", "sum over distinct JobEngine ops");
  m.push_back({"hadoop.us_per_attempt", Mean(get("hadoop.us_per_attempt")),
               "us", count("hadoop.us_per_attempt"), "mean per op"});
  total("des.events", "count", "sum over distinct ops");
  m.push_back({"des.ns_per_event", Mean(get("des.ns_per_event")), "ns",
               count("des.ns_per_event"), "mean per op"});
  mean("multijob.workload_s", "multijob.workload_s",
       "mean per RunWorkload op");
  total("multijob.jobs", "count", "sum over distinct workloads");
  total("hadoop.modeled_makespan_s", "s",
        "modeled seconds, sum over distinct ops");
  m.push_back({"trace.overhead_ratio", Mean(get("trace.overhead_ratio")),
               "ratio", count("trace.overhead_ratio"),
               "traced op seconds / plain op seconds"});
  return m;
}

void WriteResult(const Run& run, const std::vector<Metric>& metrics,
                 double wall_s) {
  std::ostringstream os;
  json::Writer w(os);
  w.BeginObject();
  w.Key("workload").String(run.opt.workload);
  w.Key("seed").Int(static_cast<std::int64_t>(run.opt.seed));
  w.Key("trace").Int(run.opt.trace ? 1 : 0);
  w.Key("scale").String(run.opt.scale);
  w.Key("attempted").Int(run.attempted);
  w.Key("failed").Int(run.failed);
  w.Key("pins").String(run.pins_checked ? "checked" : "not checked");
  w.Key("modeled_ops").Int(static_cast<std::int64_t>(run.modeled.size()));
  w.Key("wall_s").Number(wall_s);
  w.Key("errors").BeginArray();
  for (const std::string& e : run.errors) w.String(e);
  w.EndArray();
  w.Key("op_groups").BeginObject();
  for (const auto& [group, xs] : run.op_s_by_group) {
    w.Key(group).BeginObject();
    w.Key("mean_s").Number(Mean(xs));
    w.Key("n").Int(static_cast<std::int64_t>(xs.size()));
    w.EndObject();
  }
  w.EndObject();
  w.Key("metrics").BeginObject();
  for (const Metric& m : metrics) {
    w.Key(m.name).BeginObject();
    w.Key("value").Number(m.value);
    w.Key("unit").String(m.unit);
    w.Key("samples").Int(m.samples);
    w.Key("note").String(m.note);
    w.EndObject();
  }
  w.EndObject();
  w.EndObject();
  std::cout << os.str() << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = ParseArgs(argc, argv);
  const double t0 = Now();
  trace::ChromeTraceSink host_sink;
  Run run(opt, opt.trace ? &host_sink : nullptr);
  std::ostringstream report;
  try {
    if (opt.workload == "cluster_replay") {
      RunClusterWorkload(run, report);
    } else {
      RunTaskWorkload(run, report);
    }
  } catch (const std::exception& e) {
    // Set-up failures (compile, generation, golden) leave nothing to time.
    std::cerr << "perfbench: set-up failed: " << e.what() << "\n";
    return 1;
  }
  if (opt.trace && !opt.trace_out.empty()) {
    std::ofstream out(opt.trace_out);
    host_sink.Write(out);
  }
  const std::vector<Metric> metrics = opt.trace ? PerLayer(run) : EndToEnd(run);
  std::cout << report.str();
  for (const auto& [group, xs] : run.op_s_by_group) {
    std::printf("op %-24s mean %10.6f s  n=%zu\n", group.c_str(), Mean(xs),
                xs.size());
  }
  for (const Metric& m : metrics) {
    std::printf("%-28s %14.6g %-6s n=%-6lld %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), static_cast<long long>(m.samples),
                m.note.c_str());
  }
  for (const std::string& e : run.errors) std::printf("error: %s\n", e.c_str());
  WriteResult(run, metrics, Now() - t0);
  return 0;
}
