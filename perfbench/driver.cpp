// perfbench_driver — the in-process half of the CLI benchmark (run.py is
// the other half).
//
//   perfbench_driver gen cl  <n> <m> <gamma> <seed> <out.txt>
//   perfbench_driver gen sbm <n> <m> <blocks> <p_in> <seed> <out.txt>
//       Seeded input edge list (tlp_cli generate hardcodes seed 42).
//
//   perfbench_driver check <graph.tlpc> <parts> <p> [ref.parts]
//       Re-scores a .parts file written by `tlp_cli partition` and, with a
//       reference, counts edges whose partition id differs. Prints one JSON
//       line; exits 1 if the file cannot be read against the graph.
//
//   perfbench_driver trace <edges.txt> <dir> <algo> <p> <seed> <reps>
//                          <workload> <trace.json>
//       Repeats the CLI's convert and partition commands in process, calling
//       the same library functions in the same order, with one span around
//       each call. Library phase timers (refine_s, cluster_s, assign_s)
//       become child spans through the telemetry phase hook, and the
//       partition span carries the run's telemetry counters. Spans are kept
//       in memory and written at the end as Chrome trace-event JSON. The
//       partition of the last repetition is written to <dir>/trace.parts.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common/runner.hpp"
#include "gen/generators.hpp"
#include "graph/io.hpp"
#include "partition/metrics.hpp"
#include "partition/partition_io.hpp"
#include "partition/registry.hpp"
#include "partition/run_context.hpp"
#include "partition/validator.hpp"

namespace {

using namespace tlp;
using Clock = std::chrono::steady_clock;

constexpr double kMiB = 1024.0 * 1024.0;

std::uint64_t to_u64(const std::string& s) {
  return std::strtoull(s.c_str(), nullptr, 10);
}

double to_double(const std::string& s) { return std::strtod(s.c_str(), nullptr); }

/// Formats a double the way tlp_cli prints rf/balance (default ostream).
std::string cli_text(double v) {
  std::ostringstream out;
  out << v;
  return out.str();
}

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Reads VmHWM (peak resident set) from /proc/self/status, in bytes.
double peak_rss_bytes() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.starts_with("VmHWM:")) {
      return to_double(line.substr(6)) * 1024.0;
    }
  }
  return 0.0;
}

/// Resets VmHWM to the current RSS, so the growth across the next call is
/// that call's own peak. Returns the reset value.
double reset_peak_rss() {
  std::ofstream("/proc/self/clear_refs") << "5";
  return peak_rss_bytes();
}

class Tracer {
 public:
  Tracer(std::string workload, Clock::time_point origin)
      : workload_(std::move(workload)), origin_(origin) {}

  void set_rep(int rep) { rep_ = rep; }

  void open(const std::string& name) {
    spans_.push_back({name, now_us(), 0.0, open_parent(), rep_, {}});
    stack_.push_back(spans_.size() - 1);
  }

  /// Closes the innermost span, attaching numeric args.
  void close(std::map<std::string, double> args = {}) {
    Span& span = spans_[stack_.back()];
    stack_.pop_back();
    span.end_us = now_us();
    span.args = std::move(args);
  }

  void write(const std::filesystem::path& path) const {
    std::ofstream out(path);
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i == 0 ? "\n" : ",\n") << "{\"name\":\"" << s.name
          << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
          << json_number(s.start_us)
          << ",\"dur\":" << json_number(s.end_us - s.start_us)
          << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
          << ",\"workload\":\"" << workload_ << "\",\"rep\":" << s.rep;
      for (const auto& [key, value] : s.args) {
        out << ",\"" << key << "\":" << json_number(value);
      }
      out << "}}";
    }
    out << "\n]}\n";
    if (!out) throw std::runtime_error("cannot write " + path.string());
  }

 private:
  struct Span {
    std::string name;
    double start_us;
    double end_us;
    long parent;
    int rep;
    std::map<std::string, double> args;
  };

  [[nodiscard]] double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
        .count();
  }
  [[nodiscard]] long open_parent() const {
    return stack_.empty() ? -1 : static_cast<long>(stack_.back());
  }

  std::string workload_;
  Clock::time_point origin_;
  int rep_ = 0;
  std::vector<Span> spans_;
  std::vector<std::size_t> stack_;
};

int cmd_gen(const std::vector<std::string>& a) {
  Graph g;
  if (a.size() == 6 && a[0] == "cl") {
    g = gen::chung_lu_power_law(static_cast<VertexId>(to_u64(a[1])),
                                static_cast<EdgeId>(to_u64(a[2])),
                                to_double(a[3]), to_u64(a[4]));
  } else if (a.size() == 7 && a[0] == "sbm") {
    g = gen::sbm(static_cast<VertexId>(to_u64(a[1])),
                 static_cast<EdgeId>(to_u64(a[2])),
                 static_cast<VertexId>(to_u64(a[3])), to_double(a[4]),
                 to_u64(a[5]));
  } else {
    std::cerr << "usage: gen cl <n> <m> <gamma> <seed> <out> | "
                 "gen sbm <n> <m> <blocks> <p_in> <seed> <out>\n";
    return 2;
  }
  io::write_edge_list_file(g, a.back());
  std::cout << "{\"n\":" << g.num_vertices() << ",\"m\":" << g.num_edges()
            << "}\n";
  return 0;
}

int cmd_check(const std::vector<std::string>& a) {
  if (a.size() != 3 && a.size() != 4) {
    std::cerr << "usage: check <graph.tlpc> <parts> <p> [ref.parts]\n";
    return 2;
  }
  const Graph g = io::load_csr_file(a[0]);
  PartitionConfig config;
  config.num_partitions = static_cast<PartitionId>(to_u64(a[2]));
  const auto read = [&](const std::string& path) {
    const EdgePartition raw = io::read_partition_text_file(g, path);
    std::vector<PartitionId> ids(static_cast<std::size_t>(g.num_edges()));
    for (EdgeId e = 0; e < g.num_edges(); ++e) ids[e] = raw.partition_of(e);
    return EdgePartition(config.num_partitions, std::move(ids));
  };
  const EdgePartition part = read(a[1]);
  // Scoring indexes by partition id, so only an in-range partition is scored.
  const bool valid = validate(g, part, config).ok();
  const double rf = valid ? replication_factor(g, part) : 0.0;
  const double balance = valid ? balance_factor(part) : 0.0;
  long mismatched = -1;
  if (a.size() == 4) {
    const EdgePartition ref = read(a[3]);
    mismatched = 0;
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      mismatched += part.partition_of(e) != ref.partition_of(e) ? 1 : 0;
    }
  }
  std::cout << "{\"rf\":" << json_number(rf)
            << ",\"balance\":" << json_number(balance) << ",\"rf_text\":\""
            << cli_text(rf) << "\",\"balance_text\":\"" << cli_text(balance)
            << "\",\"valid\":" << (valid ? "true" : "false")
            << ",\"mismatched_edges\":" << mismatched << "}\n";
  return 0;
}

int cmd_trace(const std::vector<std::string>& a) {
  if (a.size() != 8) {
    std::cerr << "usage: trace <edges.txt> <dir> <algo> <p> <seed> <reps> "
                 "<workload> <trace.json>\n";
    return 2;
  }
  const std::filesystem::path dir = a[1];
  const std::string& algo = a[2];
  PartitionConfig config;
  config.num_partitions = static_cast<PartitionId>(to_u64(a[3]));
  config.seed = to_u64(a[4]);
  const int reps = static_cast<int>(to_u64(a[5]));
  // The registry's layer for this algorithm: the baselines module, or core.
  const std::string layer = algo == "2ps" ? "baselines" : "core";
  const std::map<std::string, std::string, std::less<>> hooked = {
      {"refine_s", "refine"},
      {"cluster_s", "baselines.cluster"},
      {"assign_s", "baselines.assign"}};

  Tracer tracer(a[6], Clock::now());
  std::vector<PartitionId> first_ids;
  for (int rep = 0; rep < reps; ++rep) {
    tracer.set_rep(rep);

    tracer.open("cli.convert");
    tracer.open("graph.convert");
    double hwm = reset_peak_rss();
    const BuildReport report =
        io::convert_edge_list_to_csr(a[0], dir / "trace.tlpc");
    tracer.close({{"hwm_growth_mb", (peak_rss_bytes() - hwm) / kMiB},
                  {"kept_edges", static_cast<double>(report.kept_edges)}});
    tracer.close();

    tracer.open("cli.partition");
    tracer.open("graph.load");
    const Graph g = io::load_csr_file(dir / "trace.tlpc");
    tracer.close({{"resident_mb",
                   static_cast<double>(g.memory_footprint().resident_bytes) /
                       kMiB}});

    RunContext ctx;
    ctx.telemetry().set_phase_hook(
        [&](std::string_view phase, double seconds) {
          const auto it = hooked.find(phase);
          if (it == hooked.end()) return;
          if (seconds == Telemetry::kPhaseEnter) {
            tracer.open(it->second);
          } else {
            tracer.close();
          }
        });
    tracer.open(layer + ".partition");
    hwm = reset_peak_rss();
    const EdgePartition part =
        make_partitioner(algo)->partition(g, config, ctx);
    std::map<std::string, double> args = {
        {"hwm_growth_mb", (peak_rss_bytes() - hwm) / kMiB}};
    for (const auto& [key, value] : ctx.telemetry().counters()) {
      args["counter." + key] = value;
    }
    for (const auto& [key, value] : ctx.telemetry().timers()) {
      args["timer." + key] = value;
    }
    tracer.close(std::move(args));
    ctx.telemetry().set_phase_hook(nullptr);

    tracer.open("partition.score");
    const double rf = replication_factor(g, part);
    const double balance = balance_factor(part);
    tracer.close({{"rf", rf}, {"balance", balance}});

    tracer.open("partition.validate");
    const bool valid = validate(g, part, config).ok();
    tracer.close({{"valid", valid ? 1.0 : 0.0}});

    tracer.open("partition.write");
    io::write_partition_text_file(g, part, dir / "trace.parts");
    tracer.close({{"bytes", static_cast<double>(
                                std::filesystem::file_size(dir / "trace.parts"))}});
    tracer.close();

    std::vector<PartitionId> ids(static_cast<std::size_t>(g.num_edges()));
    for (EdgeId e = 0; e < g.num_edges(); ++e) ids[e] = part.partition_of(e);
    if (rep == 0) first_ids = std::move(ids);
    if (!valid || (rep > 0 && ids != first_ids)) {
      std::cerr << "trace: repetition " << rep
                << (valid ? " partitioned differently from repetition 0"
                          : " produced an invalid partition")
                << '\n';
      return 1;
    }
  }
  tracer.write(a[7]);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bench::register_builtin_partitioners();
  const std::vector<std::string> all(argv + 1, argv + argc);
  const std::vector<std::string> args(all.empty() ? all.end() : all.begin() + 1,
                                      all.end());
  try {
    if (!all.empty() && all[0] == "gen") return cmd_gen(args);
    if (!all.empty() && all[0] == "check") return cmd_check(args);
    if (!all.empty() && all[0] == "trace") return cmd_trace(args);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
  std::cerr << "usage: perfbench_driver gen|check|trace ...\n";
  return 2;
}
