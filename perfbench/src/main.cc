/**
 * @file
 * moebench: one run of one serving workload against PipelinedEngine.
 *
 *   moebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *            [--trace-out <path>]
 *
 * Prints context lines, one "metric value unit" line per metric, and
 * as its last line a JSON object with the keys correct, attempted,
 * failed and metrics. --trace 0 reports the end-to-end metrics;
 * --trace 1 records spans around every call into the engine, reports
 * the per-layer metrics and writes a Chrome trace to --trace-out.
 * Exit status 0 only when every check passed.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "runner.hh"
#include "workload.hh"

using namespace perfbench;

namespace {

int
usage(const char *why)
{
    std::cerr << "moebench: " << why
              << "\nusage: moebench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--trace-out <path>]\n"
                 "workloads:";
    for (const WorkloadSpec &w : workloads())
        std::cerr << ' ' << w.name;
    std::cerr << '\n';
    return 2;
}

/** Shortest decimal that reads back as the same double; whole
 *  numbers without an exponent. */
std::string
number(double v)
{
    char buf[32];
    if (v == std::floor(v) && std::fabs(v) < 1e15) {
        std::snprintf(buf, sizeof buf, "%.0f", v);
        return buf;
    }
    for (int prec = 1; prec <= 17; ++prec) {
        std::snprintf(buf, sizeof buf, "%.*g", prec, v);
        if (std::strtod(buf, nullptr) == v)
            break;
    }
    return buf;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload, traceOut;
    RunOptions opt;
    bool haveSeed = false, haveSeconds = false, haveTrace = false;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (i + 1 >= argc)
            return usage(("missing value for " + a).c_str());
        std::string v = argv[++i];
        try {
            if (a == "--workload") {
                workload = v;
            } else if (a == "--seed") {
                opt.seed = std::stoull(v);
                haveSeed = true;
            } else if (a == "--seconds") {
                opt.seconds = std::stod(v);
                haveSeconds = true;
            } else if (a == "--trace") {
                if (v != "0" && v != "1")
                    return usage("--trace takes 0 or 1");
                opt.trace = v == "1";
                haveTrace = true;
            } else if (a == "--trace-out") {
                opt.traceOut = v;
            } else {
                return usage(("unknown argument " + a).c_str());
            }
        } catch (const std::exception &) {
            return usage(("bad value for " + a).c_str());
        }
    }
    const WorkloadSpec *spec = findWorkload(workload);
    if (!spec)
        return usage(("unknown workload '" + workload + "'").c_str());
    if (!haveSeed || !haveSeconds || !haveTrace)
        return usage("--seed, --seconds and --trace are required");
    if (!(opt.seconds > 0))
        return usage("--seconds must be positive");

    RunReport rep = runWorkload(*spec, opt);

    std::cout << "# workload " << spec->name << ", seed " << opt.seed
              << ", " << (opt.trace ? "traced" : "untraced") << " run\n";
    for (const std::string &n : rep.notes)
        std::cout << "# " << n << '\n';
    for (const Metric &m : rep.metrics)
        std::cout << m.name << ' ' << number(m.value) << ' ' << m.unit
                  << '\n';
    std::cout << "{\"correct\": " << (rep.correct ? "true" : "false")
              << ", \"attempted\": " << rep.attempted
              << ", \"failed\": " << rep.failed << ", \"metrics\": {";
    for (std::size_t i = 0; i < rep.metrics.size(); ++i) {
        const Metric &m = rep.metrics[i];
        std::cout << (i ? ", " : "") << '"' << m.name << "\": {\"value\": "
                  << number(m.value) << ", \"unit\": \"" << m.unit << "\"}";
    }
    std::cout << "}}" << std::endl;
    return rep.correct ? 0 : 1;
}
