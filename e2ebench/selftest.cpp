// Checks the benchmark's order statistics on the smallest inputs, where
// interpolating estimators go wrong: one sample and two samples.
// Run: `python3 e2ebench/run.py --self-test` (exit 0 when every check holds).
#include <cstdio>
#include <vector>

#include "stats.h"

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
    if (!ok) {
        ++failures;
        std::printf("FAIL: %s\n", what);
    }
}

}  // namespace

int main() {
    using e2ebench::percentile;
    using e2ebench::samples_beyond;

    const std::vector<double> one{459.0};
    expect(percentile(one, 0.5) == 459.0, "single sample: p50 is the sample");
    expect(percentile(one, 0.9) == 459.0, "single sample: p90 is the sample");
    expect(percentile(one, 0.0) == 459.0, "single sample: p0 is the sample");
    expect(samples_beyond(1, 0.9) == 0, "single sample: nothing beyond p90");

    const std::vector<double> two{7.0, 3.0};
    expect(percentile(two, 0.5) == 3.0, "two samples: p50 is the lower sample");
    expect(percentile(two, 0.9) == 7.0, "two samples: p90 is the upper sample");
    expect(percentile(two, 0.0) == 3.0, "two samples: p0 is the minimum");
    expect(percentile(two, 1.0) == 7.0, "two samples: p100 is the maximum");
    expect(samples_beyond(2, 0.5) == 1, "two samples: one sample beyond p50");
    expect(samples_beyond(2, 0.9) == 0, "two samples: nothing beyond p90");

    // Ten samples beyond p90 need at least 100 samples.
    expect(samples_beyond(100, 0.9) == 10, "100 samples: ten beyond p90");
    expect(samples_beyond(99, 0.9) == 9, "99 samples: nine beyond p90");

    bool threw = false;
    try {
        (void)percentile({}, 0.5);
    } catch (const std::invalid_argument&) {
        threw = true;
    }
    expect(threw, "no samples: refused");

    if (failures == 0) std::printf("e2ebench self-test: all checks passed\n");
    return failures == 0 ? 0 : 1;
}
