/**
 * @file
 * perfbench_run: runs one workload of the wall-clock serving benchmark.
 *
 *   perfbench_run --workload NAME --seed N --seconds S --trace 0|1
 *                 [--source-id ID]
 *
 * The last line of standard output is the JSON result; a failed check
 * exits 1 without one, a usage error exits 2.
 */

#include <cstdlib>
#include <iostream>
#include <string>

#include "workloads.hpp"

namespace
{

int
usage(const std::string& why)
{
    std::cerr << "perfbench_run: " << why << "\n"
              << "usage: perfbench_run --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--source-id ID]\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    perfbench::RunOptions opt;
    std::string workload;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            return usage("missing value for " + a);
        const std::string v = argv[++i];
        try {
            if (a == "--workload") {
                workload = v;
            } else if (a == "--seed") {
                opt.seed = std::stoull(v);
            } else if (a == "--seconds") {
                opt.seconds = std::stod(v);
            } else if (a == "--trace") {
                if (v != "0" && v != "1")
                    return usage("--trace takes 0 or 1");
                opt.trace = v == "1";
            } else if (a == "--source-id") {
                opt.sourceId = v;
            } else {
                return usage("unknown option " + a);
            }
        } catch (const std::exception&) {
            return usage("bad value for " + a + ": " + v);
        }
    }
    if (!(opt.seconds >= 1.0 && opt.seconds <= 600.0))
        return usage("--seconds must be within [1, 600]");
    for (const auto& w : perfbench::workloadSpecs()) {
        if (w.name == workload) {
            try {
                return perfbench::runWorkload(w, opt);
            } catch (const std::exception& e) {
                std::cerr << "perfbench_run: error: " << e.what() << "\n";
                return 1;
            }
        }
    }
    return usage("unknown workload '" + workload + "'");
}
