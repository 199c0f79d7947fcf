/**
 * @file
 * Schedule tracing: visualize how CGOPipe overlaps the four pipeline
 * resources versus the baseline schedules, for any paper setting and
 * policy, as an ASCII Gantt chart (the Fig. 6 view, but interactive).
 *
 *   $ ./schedule_trace                 # S1 defaults
 *   $ ./schedule_trace S2 256 64       # setting, N, mu
 */

#include <iostream>
#include <string>

#include "common/table.hh"
#include "sched/schedules.hh"
#include "sim/trace_export.hh"

using namespace moelight;

int
main(int argc, char **argv)
{
    std::string name = argc > 1 ? argv[1] : "S1";
    std::size_t batch = argc > 2
        ? static_cast<std::size_t>(std::stoul(argv[2]))
        : 192;
    std::size_t mu = argc > 3
        ? static_cast<std::size_t>(std::stoul(argv[3]))
        : 32;

    Setting setting = name == "S2" ? settingS2() : settingS1();
    PerfModel pm(setting.model, setting.hw, {77.0, 418.0, 64.0},
                 /*padded=*/true);

    Policy pol;
    pol.batchSize = batch;
    pol.microBatch = mu;
    pol.attnOnGpu = false;
    pol.ffnOnGpu = true;

    ScheduleOptions opt;
    opt.decodeSteps = 3;
    opt.layers = 3;

    std::cout << "setting " << setting.name << ", policy "
              << pol.str() << ", " << opt.layers
              << " layers x 3 decode steps\n";
    std::cout << "legend: A=PreAttn B=Attention C=PostAttn "
                 "H=hidden-load Q=QKV-offload W=weight page; "
                 "CPU-FFN rounds split C into R=Route "
                 "D=FFN-input-offload F=CpuFfn Y=FFN-output-load "
                 "E=residual\n\n";

    Table t({"schedule", "decode_step_s", "gpu", "cpu", "htod",
             "dtoh"});
    for (SystemKind sys :
         {SystemKind::MoeLightning, SystemKind::FastDecode,
          SystemKind::FlexGenC}) {
        auto r = simulateThroughput(sys, pm, pol, opt);
        std::cout << "--- " << systemName(sys) << " ---\n"
                  << renderGantt(r.sim, 100) << "\n";
        // Full-fidelity trace for chrome://tracing / Perfetto.
        std::string path = "/tmp/moelight_trace_" +
                           systemName(sys) + ".json";
        writeChromeTrace(r.sim, path, systemName(sys));
        std::cout << "chrome trace written to " << path << "\n\n";
        t.newRow()
            .add(systemName(sys))
            .add(r.decodeStep, 4)
            .add(r.sim.utilization[0], 2)
            .add(r.sim.utilization[1], 2)
            .add(r.sim.utilization[2], 2)
            .add(r.sim.utilization[3], 2);
    }
    t.print(std::cout, "steady-state comparison");
    return 0;
}
