// nova_sim entry point: parse flags, dispatch to the report driver.
#include <cstdio>
#include <string>

#include "cli/driver.hpp"
#include "cli/options.hpp"

namespace {

/// Parses the flags and runs the report they ask for; the exit status.
int run(int argc, char** argv) {
  nova::cli::Options options;
  std::string error;
  if (!nova::cli::parse_options(argc, argv, options, error)) {
    std::fprintf(stderr, "nova_sim: %s\n\n%s", error.c_str(),
                 nova::cli::usage().c_str());
    return 2;
  }
  if (options.show_help) {
    std::fputs(nova::cli::usage().c_str(), stdout);
    return 0;
  }
  if (options.show_list) {
    nova::cli::print_catalog();
    return 0;
  }
  return nova::cli::run(options);
}

}  // namespace

int main(int argc, char** argv) {
  const int status = run(argc, argv);
  // A full device shows only when the buffered output is flushed.
  if (std::fflush(stdout) != 0 || std::ferror(stdout) != 0) {
    std::fputs("nova_sim: cannot write to standard output\n", stderr);
    return 2;
  }
  return status;
}
