// Table 3: implementation complexity — size of each policy.
//
// The paper counts eBPF LoC and userspace-loader LoC per policy (35-689 /
// 101-262). Policies written in the policy IR are counted the way the
// verifier sees them: the instructions of every hook program, summed. The
// policies still written as C++ std::function programs (LFU, S3-FIFO, LHD,
// MGLRU) are counted by their source file's lines. Either count is printed
// next to the paper's numbers; the *ordering* — admission filter and FIFO
// smallest, MGLRU largest — should hold.

#include <cstdio>
#include <fstream>
#include <string>

#include "src/harness/reporter.h"
#include "src/policies/ir_policies.h"

namespace cache_ext::bench {
namespace {

#ifndef CACHE_EXT_SOURCE_DIR
#define CACHE_EXT_SOURCE_DIR "."
#endif

int CountLines(const std::string& relative_path) {
  std::ifstream in(std::string(CACHE_EXT_SOURCE_DIR) + "/" + relative_path);
  if (!in.is_open()) {
    return -1;
  }
  int lines = 0;
  std::string line;
  while (std::getline(in, line)) {
    ++lines;
  }
  return lines;
}

// Instructions across every hook program of an IR policy.
int CountInsns(const bpf::ir::IrPolicy& policy) {
  size_t insns = 0;
  for (const bpf::ir::Program& program : policy.hooks) {
    insns += program.size();
  }
  return static_cast<int>(insns);
}

void RunTable3() {
  std::printf("Table 3: size of each policy (this repo vs paper)\n");
  harness::Table table(
      "Table 3 — policy implementation complexity",
      {"policy", "this repo", "unit", "paper eBPF", "paper loader", "source"});
  const char* kIr = "IR insns";
  const char* kCxx = "C++ lines";
  const struct {
    const char* name;
    int size;
    const char* unit;
    int paper_ebpf;
    int paper_loader;
    const char* source;
  } rows[] = {
      {"Admission filter", CountInsns(policies::IrAdmissionFilterPolicy({})),
       kIr, 35, 262, "ir_policies.cc (+3 insns per filtered tid)"},
      {"FIFO", CountInsns(policies::IrFifoPolicy()), kIr, 56, 131,
       "ir_policies.cc"},
      {"MRU", CountInsns(policies::IrMruPolicy()), kIr, 101, 101,
       "ir_policies.cc"},
      {"LFU", CountLines("src/policies/classic.cc"), kCxx, 215, 110,
       "src/policies/classic.cc"},
      {"S3-FIFO", CountLines("src/policies/s3fifo.cc"), kCxx, 287, 157,
       "src/policies/s3fifo.cc"},
      {"GET-SCAN", CountInsns(policies::IrGetScanPolicy({})), kIr, 324, 112,
       "ir_policies.cc (+3 insns per scan pid)"},
      {"LHD", CountLines("src/policies/lhd.cc"), kCxx, 367, 165,
       "src/policies/lhd.cc"},
      {"MGLRU", CountLines("src/policies/mglru_ext.cc"), kCxx, 689, 105,
       "src/policies/mglru_ext.cc"},
  };
  for (const auto& row : rows) {
    table.AddRow({row.name,
                  row.size >= 0 ? std::to_string(row.size)
                                : "(source not found)",
                  row.unit, std::to_string(row.paper_ebpf),
                  std::to_string(row.paper_loader), row.source});
  }
  table.Print();
  std::printf(
      "Loader-side responsibilities (map setup, cgroup attach) live in\n"
      "src/policies/policy_factory.cc (%d lines) and src/cache_ext/loader.cc"
      " (%d lines).\n",
      CountLines("src/policies/policy_factory.cc"),
      CountLines("src/cache_ext/loader.cc"));
}

}  // namespace
}  // namespace cache_ext::bench

int main() {
  cache_ext::bench::RunTable3();
  return 0;
}
