/**
 * @file
 * The benchmark's self-tests: the percentile reporting rule, self-time
 * subtraction for nested and overlapping spans, and decorator
 * transparency (a tiny closed-loop scenario is byte-identical with and
 * without the benchmark's decorators). Every benchmark invocation runs
 * them before measuring; a failure makes the result incorrect.
 */

#ifndef PERFBENCH_SELFTEST_HPP
#define PERFBENCH_SELFTEST_HPP

namespace perfbench {

/** @return the number of failed checks (each is printed to stderr). */
int runSelfTests();

} // namespace perfbench

#endif // PERFBENCH_SELFTEST_HPP
