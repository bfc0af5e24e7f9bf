// CLI pipeline tool: read a SNAP-format edge list, partition it, write a
// ".parts" assignment file (one "u v partition" line per edge) plus a
// summary to stderr. The shape a downstream user wires into a data
// pipeline.
//
//   $ ./partition_file <input.txt> <output.parts> [algorithm] [p] [seed]
//
// Algorithms: tlp (default), metis, ldg, dbh, random, grid, greedy, hdrf, ne.
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>

#include "bench_common/runner.hpp"
#include "graph/io.hpp"
#include "partition/metrics.hpp"
#include "partition/partition_io.hpp"
#include "partition/registry.hpp"
#include "partition/validator.hpp"

int main(int argc, char** argv) {
  using namespace tlp;
  if (argc < 3) {
    std::cerr << "usage: " << argv[0]
              << " <input.txt> <output.parts> [algorithm=tlp] [p=10] "
                 "[seed=42]\n";
    return 2;
  }
  bench::register_builtin_partitioners();

  const std::string input = argv[1];
  const std::string output = argv[2];
  const std::string algorithm = argc > 3 ? argv[3] : "tlp";
  PartitionConfig config;
  config.num_partitions =
      argc > 4 ? static_cast<PartitionId>(std::strtoul(argv[4], nullptr, 10))
               : 10;
  config.seed = argc > 5 ? std::strtoull(argv[5], nullptr, 10) : 42;

  try {
    BuildReport report;
    // Keep original vertex ids so the .parts file matches the input file.
    const Graph g = io::read_edge_list_file(input, &report, /*relabel=*/false);
    std::cerr << "read " << input << ": " << g.summary() << " (dropped "
              << report.self_loops << " self-loops, " << report.duplicate_edges
              << " duplicates)\n";

    const PartitionerPtr partitioner = make_partitioner(algorithm);
    const EdgePartition partition = partitioner->partition(g, config);
    validate_or_throw(g, partition, config);

    const double rf = replication_factor(g, partition);
    std::ostringstream header;
    header << "# " << algorithm << " p=" << config.num_partitions
           << " seed=" << config.seed << " rf=" << rf;
    io::write_partition_text_file(g, partition, output, header.str());
    std::cerr << "wrote " << output << "  rf=" << rf
              << " balance=" << balance_factor(partition) << '\n';
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
  return 0;
}
