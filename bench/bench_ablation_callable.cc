/**
 * @file
 * Ablation: what would the transaction_callable annotation buy under a
 * conservative compiler?
 *
 * The paper found the annotation changed nothing because GCC infers
 * the safety of functions whose bodies it can see. This ablation turns
 * inference off (RuntimeCfg::inferCallableSafety = false), so every
 * unannotated helper call from a relaxed transaction forces an
 * in-flight switch — and the Callable branches suddenly matter.
 */

#include <cstdio>

#include "figure_harness.h"
#include "tm/api.h"

int
main(int argc, char **argv)
{
    using namespace tmemc;
    using namespace tmemc::bench;
    const HarnessOpts opts = parseArgs(argc, argv);

    tm::RuntimeCfg conservative;
    conservative.inferCallableSafety = false;

    // The Lib stage is where the annotation can matter: the library
    // helpers are themselves safe, so the only question is whether the
    // compiler may instrument unannotated calls. At stage 3 the calls
    // are unsafe regardless, which is why Table 1 shows no difference.
    const std::vector<SeriesSpec> series = {
        {"IP-Lib-Bare (inferring)", "IP-Lib-Bare", gccDefaultRuntime()},
        {"IP-Lib-Bare (conservative)", "IP-Lib-Bare", conservative},
        {"IP-Lib (conservative)", "IP-Lib", conservative},
    };
    runFigure("Ablation: callable annotations under a conservative compiler",
              series, opts);

    std::printf("serialization profiles at 4 threads:\n\n");
    std::printf("%-28s %12s %18s %18s %12s\n", "Configuration",
                "Transactions", "In-Flight Switch", "Start Serial",
                "Abort Serial");
    for (const SeriesSpec &s : series) {
        runWorkload(s, 4, opts);
        const auto snap = tm::Runtime::get().snapshot();
        std::printf("%s\n", snap.formatTableRow(s.label).c_str());
    }
    std::printf("\npaper context: with inference on (GCC's behaviour), "
                "annotations are\nredundant; without it, unannotated "
                "helpers serialize relaxed txns.\n");
    return 0;
}
