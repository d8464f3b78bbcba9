/**
 * @file
 * Benchmark binary. One invocation runs one workload for one
 * seed: self-tests, repeated set-up, then pipeline repetitions for the
 * requested number of seconds, and writes every measurement, digest
 * and derived metric as JSON. perfbench/run.py builds and runs it; see
 * README.md in this directory.
 *
 * Usage:
 *   perfbench --workload W --seed N --seconds S --trace 0|1
 *                    --out result.json [--spans spans.json]
 *   perfbench --selftest
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "selftest.hpp"
#include "trace.hpp"
#include "workloads.hpp"

using namespace perfbench;

namespace {

/** Repetitions of an untraced run, at least. */
constexpr int kMinReps = 3;
/** Set-ups before each pipeline repetition: at least one, more while
 *  they are cheap. */
constexpr int kSetUpBurst = 5;
constexpr double kSetUpBurstSeconds = 0.05;

/** Library layers whose self time a traced run reports. */
const char *const kLayers[] = {"profiling", "scaling", "provision", "sim",
                               "telemetry", "core",    "fault",     "shard",
                               "bench"};

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    const std::chrono::duration<double> d =
        std::chrono::steady_clock::now() - start;
    return d.count();
}

double
median(std::vector<double> xs)
{
    return quantile(std::move(xs), 0.5);
}

/** CPU time of the whole process (all threads), seconds. */
double
cpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           1e-9 * static_cast<double>(ts.tv_nsec);
}

long
statusKb(const char *key)
{
    std::FILE *status = std::fopen("/proc/self/status", "r");
    if (status == nullptr)
        return -1;
    char line[256];
    long value = -1;
    while (std::fgets(line, sizeof line, status) != nullptr) {
        if (std::strncmp(line, key, std::strlen(key)) == 0) {
            std::sscanf(line + std::strlen(key), " %ld", &value);
            break;
        }
    }
    std::fclose(status);
    return value;
}

std::string
unitOf(const std::string &name)
{
    static const std::map<std::string, std::string> exact = {
        {"peak_rss_mb", "MB"},
        {"container_minutes", "container-min"},
        {"sim.events_per_s", "1/s"},
        {"shard.events_per_s", "1/s"},
        {"profiling.unique_ratio", "ratio"},
        {"shard.event_imbalance", "ratio"},
        {"outcome.failed_request_ratio", "ratio"},
        {"failed_request_ratio", "ratio"},
        {"control.cycle_ms.tail_pct", "percentile"},
    };
    if (auto it = exact.find(name); it != exact.end())
        return it->second;
    auto ends = [&](const char *suffix) {
        const std::size_t n = std::strlen(suffix);
        return name.size() >= n &&
               name.compare(name.size() - n, n, suffix) == 0;
    };
    if (ends("_s"))
        return "s";
    if (ends("_pct"))
        return "%";
    if (name.find("_ms") != std::string::npos)
        return "ms";
    return "count";
}

/** Per-span-name aggregates and layer self times of one run's spans. */
std::map<std::string, double>
layerMetrics(const std::vector<Span> &spans, std::vector<double> &cycles_ms)
{
    std::map<std::string, double> count;
    std::map<std::string, double> total;
    const std::vector<double> self = selfTimes(spans);
    double run_self = 0.0;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        count[s.name] += 1.0;
        total[s.name] += s.duration();
        if (s.name == "sim.run" || s.name == "shard.run")
            run_self += self[i];
        if (s.name == "control.cycle")
            cycles_ms.push_back(1e3 * s.duration());
    }
    std::map<std::string, double> m;
    m["profiling.sweep_s"] = total["profiling.sweep"];
    m["profiling.fit_s"] = total["profiling.fit"];
    m["sim.run_self_s"] = run_self;
    m["control.cycles"] = count["control.cycle"];
    m["control.cycle_s"] = total["control.cycle"];
    m["telemetry.view_queries"] = count["telemetry.query"];
    m["telemetry.view_query_s"] = total["telemetry.query"];
    m["scaling.plans"] = count["scaling.plan"];
    m["scaling.plan_s"] = total["scaling.plan"];
    m["provision.placements"] = count["provision.place"];
    m["provision.evictions"] = count["provision.evict"];
    m["provision.place_s"] =
        total["provision.place"] + total["provision.evict"];
    m["shard.run_s"] = total["shard.run"];
    m["campaign.arm_s"] = count["campaign.arm"] > 0.0
                              ? total["campaign.arm"] / count["campaign.arm"]
                              : 0.0;
    const std::map<std::string, double> layers = layerSelfTimes(spans);
    for (const char *layer : kLayers) {
        auto it = layers.find(layer);
        m[std::string("layer.") + layer + ".self_s"] =
            it != layers.end() ? it->second : 0.0;
    }
    return m;
}

/** Median of every key over a list of metric maps. */
std::map<std::string, double>
medians(const std::vector<std::map<std::string, double>> &runs)
{
    std::map<std::string, std::vector<double>> values;
    for (const auto &run : runs)
        for (const auto &[name, value] : run)
            values[name].push_back(value);
    std::map<std::string, double> out;
    for (auto &[name, list] : values)
        out[name] = median(list);
    return out;
}

// --- JSON output --------------------------------------------------------

std::string
num(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
str(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out + "\"";
}

std::string
numList(const std::vector<double> &xs)
{
    std::string out = "[";
    for (std::size_t i = 0; i < xs.size(); ++i)
        out += (i ? ", " : "") + num(xs[i]);
    return out + "]";
}

std::string
strList(const std::vector<std::string> &xs)
{
    std::string out = "[";
    for (std::size_t i = 0; i < xs.size(); ++i)
        out += (i ? ", " : "") + str(xs[i]);
    return out + "]";
}

std::string
metricObject(const std::map<std::string, double> &metrics)
{
    std::string out = "{";
    bool first = true;
    for (const auto &[name, value] : metrics) {
        out += (first ? "" : ", ") + str(name) + ": {\"value\": " +
               num(value) + ", \"unit\": " + str(unitOf(name)) + "}";
        first = false;
    }
    return out + "}";
}

void
writeSpans(const std::string &path, const SpanRecorder &recorder)
{
    std::ofstream out(path);
    out << "[\n";
    const std::vector<Span> &spans = recorder.spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        out << "  {\"id\": " << i << ", \"name\": " << str(s.name)
            << ", \"layer\": " << str(s.layer)
            << ", \"start\": " << num(s.start) << ", \"end\": " << num(s.end)
            << ", \"parent\": " << s.parent << ", \"run\": " << s.run << "}"
            << (i + 1 < spans.size() ? ",\n" : "\n");
    }
    out << "]\n";
}

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string out;
    std::string spans;
    bool selftest = false;
};

bool
parseArgs(int argc, char **argv, Args &args)
{
    for (int i = 1; i < argc; ++i) {
        const std::string key = argv[i];
        if (key == "--selftest") {
            args.selftest = true;
            continue;
        }
        if (i + 1 >= argc)
            return false;
        const std::string value = argv[++i];
        if (key == "--workload")
            args.workload = value;
        else if (key == "--seed")
            args.seed = std::strtoull(value.c_str(), nullptr, 10);
        else if (key == "--seconds")
            args.seconds = std::strtod(value.c_str(), nullptr);
        else if (key == "--trace")
            args.trace = value != "0";
        else if (key == "--out")
            args.out = value;
        else if (key == "--spans")
            args.spans = value;
        else
            return false;
    }
    return args.selftest || (!args.workload.empty() && !args.out.empty());
}

/** Everything one invocation measures, in the order it happens. */
class Invocation
{
  public:
    Invocation(const Args &args, Workload &workload)
        : args_(args), workload_(workload)
    {
    }

    void
    fail(const std::string &error)
    {
        errors_.push_back(error);
    }

    /**
     * Repetitions until --seconds have passed. Each one first repeats
     * the set-up (at least once, up to kSetUpBurst times within
     * kSetUpBurstSeconds) and then runs the pipeline once on the inputs
     * the last set-up built. Interleaving puts set-up and pipeline
     * samples in the same time window, so drift in host speed moves
     * both alike. A traced invocation alternates untraced and traced
     * repetitions, so the tracing overhead and the traced-vs-untraced
     * digest equality come from one process.
     */
    void
    run()
    {
        const int min_reps = args_.trace ? 2 : kMinReps;
        const auto begin = std::chrono::steady_clock::now();
        for (int rep = 0;
             rep < min_reps || secondsSince(begin) < args_.seconds; ++rep) {
            const bool traced = args_.trace && rep % 2 == 1;
            setUpBurst(traced);
            if (rep == 0 && args_.trace)
                probe();
            pipeline(rep, traced);
        }
    }

    std::map<std::string, double>
    endToEndMetrics() const
    {
        std::map<std::string, double> m;
        m["setup_s"] = median(setupSeconds_);
        m["pipeline_s"] = median(plainSeconds_);
        m["peak_rss_mb"] = static_cast<double>(statusKb("VmHWM:")) / 1024.0;
        for (const auto &[name, value] : first_.outcome)
            m[name] = value;
        return m;
    }

    std::map<std::string, double>
    layerMetricsMedian() const
    {
        std::map<std::string, double> m = medians(repLayers_);
        // Set-up is part of every run: its layer self times add to the
        // pipeline's, and its profiling timings stand in for a pipeline
        // that does not profile.
        const std::map<std::string, double> setup = medians(setupLayers_);
        for (const char *layer : kLayers) {
            const std::string name = std::string("layer.") + layer + ".self_s";
            m[name] += setup.at(name);
        }
        for (const char *name : {"profiling.sweep_s", "profiling.fit_s"})
            if (setup.at(name) > 0.0)
                m[name] = setup.at(name);
        for (const auto &[name, value] : setupCounters_)
            m[name] = value;
        for (const auto &[name, value] : probe_)
            m[name] = value;
        for (const char *name : kCountersDefaultZero)
            m.emplace(name, 0.0);

        const double self = m["sim.run_self_s"];
        m["sim.events_per_s"] = self > 0.0 ? m["sim.events"] / self : 0.0;
        const double shard_s = m["shard.run_s"];
        m["shard.events_per_s"] =
            shard_s > 0.0 ? m["sim.events"] / shard_s : 0.0;
        m["control.cycle_ms.p50"] = median(cyclesMs_);
        const TailPercentile tail = tailPercentile(cyclesMs_);
        m["control.cycle_ms.tail"] = tail.value;
        m["control.cycle_ms.tail_pct"] = tail.percentile;
        m["control.cycle_samples"] = static_cast<double>(tail.samples);
        m["trace.overhead_s"] = median(tracedSeconds_) - median(plainSeconds_);
        for (const auto &[name, value] : first_.outcome)
            m["outcome." + name] = value;
        return m;
    }

    std::string
    json() const
    {
        std::map<std::string, std::vector<double>> distributions = {
            {"setup_s", setupSeconds_}, {"pipeline_s", plainSeconds_}};
        if (args_.trace)
            distributions["pipeline_s.traced"] = tracedSeconds_;
        std::ostringstream out;
        out << "{\n  \"workload\": " << str(args_.workload)
            << ",\n  \"seed\": " << args_.seed
            << ",\n  \"trace\": " << (args_.trace ? 1 : 0)
            << ",\n  \"seconds\": " << num(args_.seconds)
            << ",\n  \"workers\": " << workload_.workers()
            << ",\n  \"attempted\": " << attempted_
            << ",\n  \"failed\": " << failed_
            << ",\n  \"errors\": " << strList(errors_)
            << ",\n  \"setup_digest\": " << str(setupDigests_.front())
            << ",\n  \"digest\": " << str(pipelineDigests_.front())
            << ",\n  \"pipeline_cpu_seconds\": " << numList(cpuSeconds_)
            << ",\n  \"outcome\": " << metricObject(first_.outcome)
            << ",\n  \"metrics\": "
            << metricObject(args_.trace ? layerMetricsMedian()
                                        : endToEndMetrics())
            << ",\n  \"distributions\": {";
        bool first = true;
        for (const auto &[name, values] : distributions) {
            out << (first ? "" : ", ") << str(name) << ": "
                << numList(values);
            first = false;
        }
        out << "}\n}\n";
        return out.str();
    }

    const SpanRecorder &recorder() const { return recorder_; }
    bool ok() const { return errors_.empty(); }

  private:
    /** Counters a workload reports only where it has them. */
    static constexpr const char *kCountersDefaultZero[] = {
        "profiling.sweeps",      "profiling.redundant_sweeps",
        "profiling.unique_ratio", "profiling.samples",
        "sim.events",            "sim.requests_completed",
        "sim.requests_failed",   "shard.event_imbalance",
        "guard.rejections",      "guard.fallback_cycles",
        "campaign.scrapes"};

    void
    setUpBurst(bool traced)
    {
        const auto begin = std::chrono::steady_clock::now();
        for (int i = 0; i < kSetUpBurst; ++i) {
            if (i > 0 && secondsSince(begin) >= kSetUpBurstSeconds)
                break;
            const int run = -1 - static_cast<int>(setupSeconds_.size());
            record(traced, run);
            const auto start = std::chrono::steady_clock::now();
            const SetupResult setup = workload_.setUp(args_.seed);
            setupSeconds_.push_back(secondsSince(start));
            record(false, 0);
            check(setup.errors, setup.digest, setupDigests_, "set-up");
            setupCounters_ = setup.counters;
            if (traced) {
                std::vector<double> unused;
                setupLayers_.push_back(
                    layerMetrics(recorder_.spansOfRun(run), unused));
            }
        }
    }

    /** The workload's standalone layer probe (traced runs only). */
    void
    probe()
    {
        constexpr int kProbeRun = -1000000;
        record(true, kProbeRun);
        probe_ = workload_.probe();
        record(false, 0);
        if (probe_.empty())
            return;
        std::vector<double> unused;
        const std::map<std::string, double> timed =
            layerMetrics(recorder_.spansOfRun(kProbeRun), unused);
        for (const char *name : {"profiling.sweep_s", "profiling.fit_s"})
            probe_[name] = timed.at(name);
    }

    void
    pipeline(int rep, bool traced)
    {
        record(traced, rep);
        PipelineResult result;
        const double cpu_start = cpuSeconds();
        const auto start = std::chrono::steady_clock::now();
        {
            ScopedSpan span("pipeline", "bench");
            result = workload_.runPipeline(traced);
        }
        (traced ? tracedSeconds_ : plainSeconds_)
            .push_back(secondsSince(start));
        cpuSeconds_.push_back(cpuSeconds() - cpu_start);
        record(false, 0);
        check(result.errors, result.digest, pipelineDigests_,
              traced ? "traced pipeline" : "pipeline");
        if (rep == 0)
            first_ = result;
        if (traced) {
            std::map<std::string, double> m =
                layerMetrics(recorder_.spansOfRun(rep), cyclesMs_);
            for (const auto &[name, value] : result.counters)
                m[name] = value;
            repLayers_.push_back(std::move(m));
        }
    }

    void
    record(bool on, int run)
    {
        recorder_.setRun(run);
        SpanRecorder::install(on ? &recorder_ : nullptr);
    }

    /** One attempted operation: it fails on output-check errors or a
     *  digest that differs from the first repetition's. */
    void
    check(const std::vector<std::string> &errors, const std::string &digest,
          std::vector<std::string> &digests, const char *what)
    {
        ++attempted_;
        const bool same = digests.empty() || digest == digests.front();
        if (!errors.empty() || !same) {
            ++failed_;
            errors_.insert(errors_.end(), errors.begin(), errors.end());
            if (!same)
                errors_.push_back(std::string(what) +
                                  " digest differs from the first repetition");
        }
        digests.push_back(digest);
    }

    const Args &args_;
    Workload &workload_;
    SpanRecorder recorder_;
    std::vector<std::string> errors_;
    int attempted_ = 0;
    int failed_ = 0;

    std::vector<double> setupSeconds_;
    std::vector<std::string> setupDigests_;
    std::vector<std::map<std::string, double>> setupLayers_;
    std::map<std::string, double> setupCounters_;
    std::map<std::string, double> probe_;

    std::vector<double> plainSeconds_;
    std::vector<double> tracedSeconds_;
    std::vector<double> cpuSeconds_;
    std::vector<std::string> pipelineDigests_;
    std::vector<std::map<std::string, double>> repLayers_;
    std::vector<double> cyclesMs_;
    PipelineResult first_;
};

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    if (!parseArgs(argc, argv, args)) {
        std::fprintf(stderr,
                     "usage: perfbench --workload W --seed N "
                     "--seconds S --trace 0|1 --out FILE [--spans FILE]\n"
                     "       perfbench --selftest\n");
        return 2;
    }
    const int selftest_failures = runSelfTests();
    if (args.selftest) {
        std::printf("selftest: %s\n", selftest_failures == 0 ? "ok" : "FAILED");
        return selftest_failures == 0 ? 0 : 1;
    }
    std::unique_ptr<Workload> workload = makeWorkload(args.workload);
    if (workload == nullptr) {
        std::fprintf(stderr, "unknown workload: %s\n", args.workload.c_str());
        return 2;
    }

    Invocation invocation(args, *workload);
    if (selftest_failures != 0)
        invocation.fail("benchmark self-tests failed");
    invocation.run();

    std::ofstream file(args.out);
    file << invocation.json();
    file.close();
    if (!file) {
        std::fprintf(stderr, "cannot write %s\n", args.out.c_str());
        return 2;
    }
    if (args.trace && !args.spans.empty())
        writeSpans(args.spans, invocation.recorder());
    return invocation.ok() ? 0 : 1;
}
