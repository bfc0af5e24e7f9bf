// Tests for bench_common utilities: table rendering, CSV escaping, and the
// environment-variable knobs.
#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>
#include <thread>
#include <vector>

#include "bench_common/options.hpp"
#include "bench_common/table.hpp"

namespace tlp::bench {
namespace {

/// RAII environment-variable override.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    if (old != nullptr) saved_ = old;
    had_value_ = old != nullptr;
    if (value != nullptr) {
      ::setenv(name, value, 1);
    } else {
      ::unsetenv(name);
    }
  }
  ~ScopedEnv() {
    if (had_value_) {
      ::setenv(name_, saved_.c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }

 private:
  const char* name_;
  std::string saved_;
  bool had_value_ = false;
};

TEST(TableTest, AlignsAndPadsColumns) {
  Table table({"name", "value"});
  table.add_row({"alpha", "1.5"});
  table.add_row({"b", "12345"});
  std::ostringstream out;
  const ScopedEnv no_csv("TLP_BENCH_CSV", nullptr);
  table.print(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("| alpha | "), std::string::npos);
  // Numeric cells right-aligned: "12345" flush right in its column.
  EXPECT_NE(text.find("   1.5 |"), std::string::npos);
  EXPECT_NE(text.find(" 12345 |"), std::string::npos);
  EXPECT_EQ(text.find("[csv]"), std::string::npos);
}

TEST(TableTest, ShortRowsArePadded) {
  Table table({"a", "b", "c"});
  table.add_row({"only-one"});
  std::ostringstream out;
  const ScopedEnv no_csv("TLP_BENCH_CSV", nullptr);
  table.print(out);  // must not crash; missing cells render empty
  EXPECT_NE(out.str().find("only-one"), std::string::npos);
}

TEST(TableTest, CsvEscapesSpecialCells) {
  Table table({"k", "v"});
  table.add_row({"comma,cell", "quote\"cell"});
  std::ostringstream out;
  table.print_csv(out);
  EXPECT_NE(out.str().find("\"comma,cell\""), std::string::npos);
  EXPECT_NE(out.str().find("\"quote\"\"cell\""), std::string::npos);
}

TEST(TableTest, EnvTogglesCsvAppendix) {
  Table table({"x"});
  table.add_row({"1"});
  const ScopedEnv csv("TLP_BENCH_CSV", "1");
  std::ostringstream out;
  table.print(out);
  EXPECT_NE(out.str().find("[csv]"), std::string::npos);
  EXPECT_NE(out.str().find("x\n1\n"), std::string::npos);
}

TEST(OptionsTest, DefaultsWhenUnset) {
  const ScopedEnv s1("TLP_BENCH_SCALE", nullptr);
  const ScopedEnv s2("TLP_BENCH_GRAPHS", nullptr);
  const ScopedEnv s3("TLP_BENCH_PS", nullptr);
  EXPECT_DOUBLE_EQ(bench_scale(), 1.0);
  EXPECT_EQ(bench_graph_ids().size(), 9u);
  EXPECT_EQ(bench_partition_counts(),
            (std::vector<PartitionId>{10, 15, 20}));
}

TEST(OptionsTest, ParsesOverrides) {
  const ScopedEnv s1("TLP_BENCH_SCALE", "0.25");
  const ScopedEnv s2("TLP_BENCH_GRAPHS", "G1,G5,G9");
  const ScopedEnv s3("TLP_BENCH_PS", "4,8");
  EXPECT_DOUBLE_EQ(bench_scale(), 0.25);
  EXPECT_EQ(bench_graph_ids(),
            (std::vector<std::string>{"G1", "G5", "G9"}));
  EXPECT_EQ(bench_partition_counts(), (std::vector<PartitionId>{4, 8}));
}

TEST(OptionsTest, DefaultThreadSweepIsCappedAtHardware) {
  const ScopedEnv env("TLP_BENCH_THREADS", nullptr);
  const std::size_t hw = std::thread::hardware_concurrency();
  std::vector<std::size_t> expected{1};
  for (const std::size_t t : {2u, 4u, 8u}) {
    if (t <= hw) expected.push_back(t);
  }
  EXPECT_EQ(bench_thread_counts(), expected);
  // An explicit list is taken as given, oversubscribed or not.
  const ScopedEnv explicit_list("TLP_BENCH_THREADS", "1,16");
  EXPECT_EQ(bench_thread_counts(), (std::vector<std::size_t>{1, 16}));
}

TEST(OptionsTest, RejectsBadValues) {
  const ScopedEnv s1("TLP_BENCH_SCALE", "-2");
  EXPECT_THROW((void)bench_scale(), std::runtime_error);
  const ScopedEnv s3("TLP_BENCH_PS", "0");
  EXPECT_THROW((void)bench_partition_counts(), std::runtime_error);
}

}  // namespace
}  // namespace tlp::bench
