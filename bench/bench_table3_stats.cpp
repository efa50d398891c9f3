// Reproduces Table 3: general statistics of the code exercised by the
// MFEM examples -- source files, average functions per file and total
// functions, all read off the code model.  The paper's fourth row,
// source lines of code, has no counterpart here: the model registers
// functions, not source text, and a count of the repository's own lines
// would move with every change to it.

#include <cstdio>

#include "fpsem/code_model.h"
#include "mfemini/examples.h"

int main() {
  using flit::fpsem::global_code_model;
  const auto& model = global_code_model();
  const auto files = flit::mfemini::mfem_source_files();

  std::size_t functions = 0;
  for (const auto& f : files) functions += model.functions_in(f).size();

  std::printf("Table 3: general statistics of the code used by the MFEM "
              "examples\n");
  std::printf("%-28s %10zu   (paper: 97)\n", "source files", files.size());
  std::printf("%-28s %10.1f   (paper: 31)\n", "average functions per file",
              static_cast<double>(functions) / files.size());
  std::printf("%-28s %10zu   (paper: 2,998)\n", "total functions", functions);
  std::printf(
      "\nThe mini-MFEM model is ~7x smaller than MFEM per dimension "
      "(files, functions); Bisect cost scales with log of these counts.\n");
  return 0;
}
