/**
 * @file
 * Self-tuning guardrail suite (docs/self_tuning.md): the
 * AdaptiveGuardTuner's feedback rules and hysteresis contract, config
 * validation for the tuner / guard rails, the knob-sweep reduction
 * (knee picks + safe bounds), worker-count byte-identity of the sweep
 * harness, the guard's first-class metrics, and the campaign-level
 * transparency contracts: a disabled tuner is byte-identical to the
 * static guarded stack, a clean stream leaves an
 * enabled tuner provably inert, and self-tuned runs replay identically
 * across ERMS_RUNNER_THREADS over 20 seeds.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "apps/applications.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/controllers.hpp"
#include "core/erms.hpp"
#include "fault/campaign.hpp"
#include "fault/telemetry_fault.hpp"
#include "runner/parallel_runner.hpp"
#include "sim/simulation.hpp"
#include "telemetry/guarded_view.hpp"
#include "telemetry/monitor.hpp"
#include "telemetry/registry.hpp"
#include "tuning/adaptive.hpp"
#include "tuning/sweep.hpp"

namespace erms {
namespace {

using namespace erms::tuning;
using telemetry::GuardConfig;
using telemetry::GuardedTelemetryView;
using telemetry::GuardMode;
using telemetry::MetricsRegistry;

constexpr SimTime kMinuteUs = 60ULL * 1000ULL * 1000ULL;

/** Bit-pattern double equality (NaN-proof, distinguishes -0.0). */
bool
sameBits(double a, double b)
{
    return std::bit_cast<std::uint64_t>(a) ==
           std::bit_cast<std::uint64_t>(b);
}

bool
sameKnobs(const TunedKnobs &a, const TunedKnobs &b)
{
    return sameBits(a.madGateMultiplier, b.madGateMultiplier) &&
           sameBits(a.maxStalenessMs, b.maxStalenessMs) &&
           a.suspectBadCyclesToFallback == b.suspectBadCyclesToFallback &&
           sameBits(a.fallbackOverProvisionFactor,
                    b.fallbackOverProvisionFactor) &&
           sameBits(a.fallbackEscalationPerCycle,
                    b.fallbackEscalationPerCycle);
}

TunerSignals
quiet()
{
    return TunerSignals{};
}

TunerSignals
softOnly(std::uint64_t clamps = 0)
{
    TunerSignals s;
    s.softRejects = 2;
    s.upStepClamps = clamps;
    return s;
}

TunerSignals
hardSilent()
{
    TunerSignals s;
    s.hardRejects = 1;
    return s;
}

TunerSignals
staleOnly()
{
    TunerSignals s;
    s.staleCycles = 1;
    return s;
}

TunerSignals
staleNoisy()
{
    TunerSignals s;
    s.staleCycles = 1;
    s.softRejects = 1;
    return s;
}

TunerSignals
fallbackCycle()
{
    TunerSignals s;
    s.inFallback = true;
    s.staleCycles = 1;
    return s;
}

// ---------------------------------------------------------------------
// AdaptiveGuardTuner: feedback rules + hysteresis
// ---------------------------------------------------------------------

TEST(AdaptiveTuner, CleanStreamIsProvablyInert)
{
    AdaptiveGuardTuner tuner({}, {});
    for (int i = 0; i < 50; ++i)
        EXPECT_FALSE(tuner.observe(quiet())) << "cycle " << i;
    EXPECT_TRUE(sameKnobs(tuner.knobs(), tuner.initialKnobs()));
    EXPECT_TRUE(tuner.adjustments().empty());
    EXPECT_EQ(tuner.cycles(), 50u);
}

TEST(AdaptiveTuner, LoosenGateFiresAfterOverRejectStreak)
{
    AdaptiveTunerConfig config;
    AdaptiveGuardTuner tuner({}, config);
    for (int i = 0; i < config.overRejectCycles - 1; ++i)
        EXPECT_FALSE(tuner.observe(softOnly()));
    EXPECT_TRUE(tuner.observe(softOnly()));
    ASSERT_EQ(tuner.adjustments().size(), 1u);
    EXPECT_EQ(tuner.adjustments()[0].rule, "loosen-gate");
    EXPECT_DOUBLE_EQ(tuner.knobs().madGateMultiplier,
                     tuner.initialKnobs().madGateMultiplier *
                         config.gateStep);
    // No up-step clamps during the streak: the SUSPECT threshold stays.
    EXPECT_EQ(tuner.knobs().suspectBadCyclesToFallback,
              tuner.initialKnobs().suspectBadCyclesToFallback);
}

TEST(AdaptiveTuner, LoosenGateAlsoRaisesSuspectThresholdOnClamps)
{
    AdaptiveTunerConfig config;
    AdaptiveGuardTuner tuner({}, config);
    for (int i = 0; i < config.overRejectCycles - 1; ++i)
        tuner.observe(softOnly(1));
    EXPECT_TRUE(tuner.observe(softOnly(1)));
    EXPECT_EQ(tuner.knobs().suspectBadCyclesToFallback,
              tuner.initialKnobs().suspectBadCyclesToFallback + 1);
}

TEST(AdaptiveTuner, TightenGateOnHardSilentStreak)
{
    TunedKnobs initial;
    initial.suspectBadCyclesToFallback = 2;
    AdaptiveTunerConfig config;
    AdaptiveGuardTuner tuner(initial, config);
    for (int i = 0; i < config.missedLieCycles - 1; ++i)
        EXPECT_FALSE(tuner.observe(hardSilent()));
    EXPECT_TRUE(tuner.observe(hardSilent()));
    ASSERT_EQ(tuner.adjustments().size(), 1u);
    EXPECT_EQ(tuner.adjustments()[0].rule, "tighten-gate");
    EXPECT_DOUBLE_EQ(tuner.knobs().madGateMultiplier,
                     initial.madGateMultiplier / config.gateStep);
    EXPECT_EQ(tuner.knobs().suspectBadCyclesToFallback, 1);
}

TEST(AdaptiveTuner, AlternatingEvidenceNeverFires)
{
    // Opposing rules key on mutually exclusive categories, and
    // alternating categories reset each other's streaks — the
    // hysteresis contract that keeps knobs from oscillating.
    AdaptiveGuardTuner tuner({}, {});
    for (int i = 0; i < 40; ++i)
        EXPECT_FALSE(
            tuner.observe(i % 2 == 0 ? softOnly() : hardSilent()))
            << "cycle " << i;
    EXPECT_TRUE(tuner.adjustments().empty());
}

TEST(AdaptiveTuner, StalenessWidensOnStaleOnlyAndNarrowsOnStaleNoisy)
{
    AdaptiveTunerConfig config;
    {
        AdaptiveGuardTuner tuner({}, config);
        for (int i = 0; i < config.staleCleanCycles - 1; ++i)
            EXPECT_FALSE(tuner.observe(staleOnly()));
        EXPECT_TRUE(tuner.observe(staleOnly()));
        EXPECT_EQ(tuner.adjustments().back().rule, "widen-staleness");
        EXPECT_DOUBLE_EQ(tuner.knobs().maxStalenessMs,
                         tuner.initialKnobs().maxStalenessMs *
                             config.stalenessStep);
    }
    {
        AdaptiveGuardTuner tuner({}, config);
        for (int i = 0; i < config.staleCleanCycles - 1; ++i)
            EXPECT_FALSE(tuner.observe(staleNoisy()));
        EXPECT_TRUE(tuner.observe(staleNoisy()));
        EXPECT_EQ(tuner.adjustments().back().rule, "narrow-staleness");
        EXPECT_DOUBLE_EQ(tuner.knobs().maxStalenessMs,
                         tuner.initialKnobs().maxStalenessMs /
                             config.stalenessStep);
    }
}

TEST(AdaptiveTuner, EscalateFallbackOnHighResidency)
{
    AdaptiveTunerConfig config;
    AdaptiveGuardTuner tuner({}, config);
    for (int i = 0; i < config.residencyWindow - 1; ++i)
        EXPECT_FALSE(tuner.observe(fallbackCycle()));
    EXPECT_TRUE(tuner.observe(fallbackCycle()));
    ASSERT_EQ(tuner.adjustments().size(), 1u);
    EXPECT_EQ(tuner.adjustments()[0].rule, "escalate-fallback");
    EXPECT_DOUBLE_EQ(tuner.knobs().fallbackOverProvisionFactor,
                     tuner.initialKnobs().fallbackOverProvisionFactor +
                         config.fallbackStep);
    EXPECT_DOUBLE_EQ(tuner.knobs().fallbackEscalationPerCycle,
                     tuner.initialKnobs().fallbackEscalationPerCycle +
                         0.5 * config.fallbackStep);

    // The ring clears on fire: another full window of fallback
    // residency (plus the cooldown) is required before the next step.
    int fired = 0;
    for (int i = 0; i < config.residencyWindow - 1; ++i)
        fired += tuner.observe(fallbackCycle()) ? 1 : 0;
    EXPECT_EQ(fired, 0);
}

TEST(AdaptiveTuner, RelaxFallbackStepsBackButNeverBelowInitial)
{
    AdaptiveTunerConfig config;
    AdaptiveGuardTuner tuner({}, config);
    // Escalate once...
    for (int i = 0; i < config.residencyWindow; ++i)
        tuner.observe(fallbackCycle());
    ASSERT_EQ(tuner.adjustments().size(), 1u);
    // ...then a quiet stretch: one relax step back to the initial
    // margin, and afterwards quiet cycles change nothing ever again.
    bool relaxed = false;
    for (int i = 0; i < 4 * config.residencyWindow; ++i)
        relaxed = tuner.observe(quiet()) || relaxed;
    EXPECT_TRUE(relaxed);
    EXPECT_EQ(tuner.adjustments().back().rule, "relax-fallback");
    EXPECT_DOUBLE_EQ(tuner.knobs().fallbackOverProvisionFactor,
                     tuner.initialKnobs().fallbackOverProvisionFactor);
    EXPECT_DOUBLE_EQ(tuner.knobs().fallbackEscalationPerCycle,
                     tuner.initialKnobs().fallbackEscalationPerCycle);
    const std::size_t settled = tuner.adjustments().size();
    for (int i = 0; i < 3 * config.residencyWindow; ++i)
        EXPECT_FALSE(tuner.observe(quiet()));
    EXPECT_EQ(tuner.adjustments().size(), settled);
}

TEST(AdaptiveTuner, KnobsClampAtSweepBounds)
{
    AdaptiveTunerConfig config;
    config.cooldownCycles = 0;
    AdaptiveGuardTuner tuner({}, config);
    for (int i = 0; i < 400; ++i)
        tuner.observe(softOnly());
    EXPECT_DOUBLE_EQ(tuner.knobs().madGateMultiplier, config.madGate.hi);
    // At the bound the rule stops committing (no-op adjustments are
    // not recorded), so the trajectory is finite.
    for (const TunerAdjustment &adj : tuner.adjustments())
        EXPECT_LE(adj.knobs.madGateMultiplier, config.madGate.hi);
    const std::size_t settled = tuner.adjustments().size();
    for (int i = 0; i < 20; ++i)
        EXPECT_FALSE(tuner.observe(softOnly()));
    EXPECT_EQ(tuner.adjustments().size(), settled);
}

TEST(AdaptiveTuner, CooldownSpacesConsecutiveAdjustments)
{
    AdaptiveTunerConfig config;
    AdaptiveGuardTuner tuner({}, config);
    for (int i = 0; i < 30; ++i)
        tuner.observe(softOnly());
    ASSERT_GE(tuner.adjustments().size(), 2u);
    for (std::size_t i = 1; i < tuner.adjustments().size(); ++i)
        EXPECT_GE(tuner.adjustments()[i].cycle -
                      tuner.adjustments()[i - 1].cycle,
                  static_cast<std::uint64_t>(config.cooldownCycles + 1));
}

TEST(AdaptiveTuner, DisabledTunerNeverMoves)
{
    AdaptiveTunerConfig config;
    config.enabled = false;
    AdaptiveGuardTuner tuner({}, config);
    for (int i = 0; i < 60; ++i) {
        EXPECT_FALSE(tuner.observe(softOnly(2)));
        EXPECT_FALSE(tuner.observe(fallbackCycle()));
    }
    EXPECT_TRUE(sameKnobs(tuner.knobs(), tuner.initialKnobs()));
    EXPECT_TRUE(tuner.adjustments().empty());
}

// ---------------------------------------------------------------------
// Config validation: one loud rejection per rule
// ---------------------------------------------------------------------

TEST(TunerConfigValidation, RejectsNonsensicalKnobs)
{
    const auto expectThrow = [](auto mutate) {
        AdaptiveTunerConfig config;
        mutate(config);
        EXPECT_THROW(validateTunerConfig(config), ErmsError);
    };
    expectThrow([](auto &c) { c.cooldownCycles = -1; });
    expectThrow([](auto &c) { c.overRejectCycles = 0; });
    expectThrow([](auto &c) { c.missedLieCycles = 0; });
    expectThrow([](auto &c) { c.staleCleanCycles = 0; });
    expectThrow([](auto &c) { c.residencyWindow = 0; });
    expectThrow([](auto &c) { c.fallbackResidencyHigh = 0.0; });
    expectThrow([](auto &c) { c.fallbackResidencyHigh = 1.5; });
    expectThrow([](auto &c) { c.gateStep = 1.0; });
    expectThrow([](auto &c) {
        c.stalenessStep = std::numeric_limits<double>::infinity();
    });
    expectThrow([](auto &c) { c.fallbackStep = 0.0; });
    expectThrow([](auto &c) { c.madGate = {8.0, 2.0}; });
    expectThrow([](auto &c) { c.madGate = {0.0, 8.0}; });
    expectThrow([](auto &c) { c.stalenessMs = {0.0, 1.0}; });
    expectThrow([](auto &c) { c.suspectToFallback = {0.0, 4.0}; });
    expectThrow([](auto &c) { c.fallbackFactor = {0.5, 4.0}; });
    expectThrow([](auto &c) { c.fallbackEscalation = {-0.1, 1.0}; });
    validateTunerConfig({}); // the default is valid
}

TEST(GuardrailConfigValidation, RejectsNonsensicalKnobs)
{
    const auto expectThrow = [](auto mutate) {
        GuardrailConfig config;
        mutate(config);
        EXPECT_THROW(validateGuardrailConfig(config), ErmsError);
    };
    expectThrow([](auto &c) { c.maxScaleStepFraction = 0.0; });
    expectThrow([](auto &c) {
        c.maxScaleStepFraction = std::numeric_limits<double>::infinity();
    });
    expectThrow([](auto &c) { c.scaleDownHoldFraction = -0.1; });
    expectThrow([](auto &c) { c.fallbackOverProvisionFactor = 0.9; });
    expectThrow([](auto &c) { c.fallbackEscalationPerCycle = -0.25; });
    expectThrow([](auto &c) { c.fallbackMaxOverProvisionFactor = 1.0; });
    validateGuardrailConfig({});
}

// ---------------------------------------------------------------------
// Sweep reduction: knee pick + safe bounds (pure, synthetic cells)
// ---------------------------------------------------------------------

TEST(SweepReduction, KneeAndSafeBoundsFromSyntheticCells)
{
    // A U-shaped violation curve over values {2, 4, 8}: the middle
    // value wins; the cheap extreme (value 8, low containers) stays
    // inside the slack, the expensive one (value 2) does not.
    std::vector<SweepCell> cells;
    const auto add = [&](double value, const char *scenario,
                         double violation, double containers) {
        SweepCell cell;
        cell.knob = GuardKnob::MadGateMultiplier;
        cell.value = value;
        cell.scenario = scenario;
        cell.violationPct = violation;
        cell.meanContainers = containers;
        cells.push_back(cell);
    };
    add(2.0, "med", 30.0, 60.0);
    add(2.0, "high", 34.0, 62.0);
    add(4.0, "med", 10.0, 50.0);
    add(4.0, "high", 12.0, 52.0);
    add(8.0, "med", 18.0, 40.0);
    add(8.0, "high", 20.0, 42.0);

    const OperatingCurve curve =
        reduceCurve(GuardKnob::MadGateMultiplier, cells, 0.25, 0.30);
    ASSERT_EQ(curve.points.size(), 3u);
    EXPECT_DOUBLE_EQ(curve.points[0].violationPct, 32.0);
    EXPECT_DOUBLE_EQ(curve.points[1].meanContainers, 51.0);
    EXPECT_EQ(curve.kneeIndex, 1u);
    EXPECT_DOUBLE_EQ(curve.kneeValue, 4.0);
    EXPECT_DOUBLE_EQ(curve.safeBounds.lo, 4.0);
    EXPECT_DOUBLE_EQ(curve.safeBounds.hi, 8.0);

    // Cells of other knobs are ignored; an empty selection throws.
    EXPECT_THROW(
        reduceCurve(GuardKnob::MaxStalenessMs, cells, 0.25, 0.30),
        ErmsError);
}

TEST(SweepConfigValidation, RejectsEmptyAndOutOfDomainGrids)
{
    GuardSweepConfig sweep;
    EXPECT_THROW(runGuardSweep(sweep), ErmsError); // no scenarios

    sweep.scenarios.push_back({"med", CampaignConfig{}});
    EXPECT_THROW(runGuardSweep(sweep), ErmsError); // no grids

    sweep.grids.push_back({GuardKnob::MadGateMultiplier, {}});
    EXPECT_THROW(runGuardSweep(sweep), ErmsError); // empty grid

    sweep.grids[0].values = {-2.0};
    EXPECT_THROW(runGuardSweep(sweep), ErmsError); // domain violation

    sweep.grids[0] = {GuardKnob::SuspectBadCyclesToFallback, {1.5}};
    EXPECT_THROW(runGuardSweep(sweep), ErmsError); // non-integer cycles
}

// ---------------------------------------------------------------------
// Campaign-level contracts
// ---------------------------------------------------------------------

/** Micro campaign: the smallest population whose guarded arm still
 *  sees faults (keeps each in-suite campaign in the ~2 s range). */
CampaignConfig
microCampaign(const std::string &intensity)
{
    CampaignConfig config = makeCampaignArm(intensity, "erms", true);
    config.horizonMinutes = 4;
    config.hostCount = 4;
    config.trace.microserviceCount = 8;
    config.trace.serviceCount = 1;
    config.trace.workloadLow = 8000.0;
    config.trace.workloadHigh = 10000.0;
    return config;
}

void
expectSameMinutes(const std::vector<CampaignMinute> &a,
                  const std::vector<CampaignMinute> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].minute, b[i].minute);
        EXPECT_EQ(a[i].containers, b[i].containers) << "minute " << i;
        EXPECT_TRUE(sameBits(a[i].violationPct, b[i].violationPct))
            << "minute " << i;
        EXPECT_TRUE(sameBits(a[i].worstP95Ms, b[i].worstP95Ms))
            << "minute " << i;
        EXPECT_EQ(a[i].guardMode, b[i].guardMode) << "minute " << i;
    }
}

TEST(SelfTuningTransparency, DisabledTunerMatchesStatic)
{
    const CampaignConfig static_arm = microCampaign("med");
    CampaignConfig tuned = microCampaign("med");
    tuned.selfTuned = true;
    tuned.tuner.enabled = false;

    const CampaignResult a = runCampaign(static_arm);
    const CampaignResult b = runCampaign(tuned);
    expectSameMinutes(a.minutes, b.minutes);
    ASSERT_EQ(a.perturbedHistory.size(), b.perturbedHistory.size());
    for (std::size_t i = 0; i < a.perturbedHistory.size(); ++i)
        EXPECT_TRUE(a.perturbedHistory[i] == b.perturbedHistory[i])
            << "scrape " << i;
    EXPECT_TRUE(b.tunerAdjustments.empty());
}

TEST(SelfTuningTransparency, CleanStreamLeavesEnabledTunerInert)
{
    // "off" intensity: no faults, no corruption — the guard is
    // transparent, so the tuner sees zero evidence and must leave the
    // knobs at their NORMAL-equivalent initial values.
    const CampaignConfig static_arm = microCampaign("off");
    CampaignConfig tuned = microCampaign("off");
    tuned.selfTuned = true;

    const CampaignResult a = runCampaign(static_arm);
    const CampaignResult b = runCampaign(tuned);
    expectSameMinutes(a.minutes, b.minutes);
    EXPECT_TRUE(b.tunerAdjustments.empty());
    EXPECT_TRUE(sameKnobs(
        b.finalKnobs,
        knobsFrom(tuned.guard, b.finalKnobs.fallbackOverProvisionFactor,
                  b.finalKnobs.fallbackEscalationPerCycle)));
    EXPECT_EQ(b.guard.rejectedBounds, 0u);
    EXPECT_EQ(b.guard.fallbackCycles, 0u);
}

TEST(SelfTuningDeterminism, SelfTunedCampaignReplaysExactly)
{
    CampaignConfig config = microCampaign("high");
    config.selfTuned = true;
    const CampaignResult a = runCampaign(config);
    const CampaignResult b = runCampaign(config);
    expectSameMinutes(a.minutes, b.minutes);
    ASSERT_EQ(a.tunerAdjustments.size(), b.tunerAdjustments.size());
    for (std::size_t i = 0; i < a.tunerAdjustments.size(); ++i) {
        EXPECT_EQ(a.tunerAdjustments[i].cycle, b.tunerAdjustments[i].cycle);
        EXPECT_EQ(a.tunerAdjustments[i].rule, b.tunerAdjustments[i].rule);
    }
    EXPECT_TRUE(sameKnobs(a.finalKnobs, b.finalKnobs));
}

TEST(SelfTuningDeterminism, ArchiveRoundTripsSelfTunedConfig)
{
    CampaignConfig config = microCampaign("med");
    config.selfTuned = true;
    config.tuner.overRejectCycles = 2;
    config.tuner.madGate = {3.0, 24.0};
    config.guard.madGateMultiplier = 6.0;
    config.fallbackOverProvisionFactor = 1.4;
    const CampaignResult result = runCampaign(config);

    const std::string archive = archiveCampaign(config, result);
    const CampaignConfig parsed = campaignConfigFromArchive(archive);
    EXPECT_TRUE(parsed.selfTuned);
    EXPECT_EQ(parsed.tuner.overRejectCycles, 2);
    EXPECT_TRUE(sameBits(parsed.tuner.madGate.lo, 3.0));
    EXPECT_TRUE(sameBits(parsed.tuner.madGate.hi, 24.0));
    EXPECT_TRUE(sameBits(parsed.guard.madGateMultiplier, 6.0));
    EXPECT_TRUE(sameBits(parsed.fallbackOverProvisionFactor, 1.4));

    const CampaignReplay replay = replayCampaign(archive);
    EXPECT_TRUE(replay.identical());
}

// ---------------------------------------------------------------------
// Sweep harness: worker-count byte-identity
// ---------------------------------------------------------------------

TEST(SweepDeterminism, JsonIsByteIdenticalAcrossWorkerCounts)
{
    GuardSweepConfig sweep;
    sweep.scenarios.push_back({"med", microCampaign("med")});
    sweep.grids.push_back({GuardKnob::MadGateMultiplier, {4.0, 16.0}});

    sweep.runnerWorkers = 1;
    const GuardSweepResult serial = runGuardSweep(sweep);
    sweep.runnerWorkers = 2;
    const GuardSweepResult parallel = runGuardSweep(sweep);

    EXPECT_EQ(sweepToJson(sweep, serial), sweepToJson(sweep, parallel));
    ASSERT_EQ(serial.curves.size(), 1u);
    EXPECT_EQ(serial.curves[0].kneeValue, parallel.curves[0].kneeValue);
}

// ---------------------------------------------------------------------
// Self-tuned stack at sim level: 20-seed thread-count byte-identity
// ---------------------------------------------------------------------

struct TunedRunResult
{
    std::uint64_t requestsCompleted = 0;
    std::vector<double> latencies;
    std::size_t adjustments = 0;
};

/** One faulty, self-tuned dynamic run (the cheap sim-level mirror of a
 *  campaign's guarded path, so 20 seeds stay affordable in-suite). */
TunedRunResult
runSelfTuned(const MicroserviceCatalog &catalog, const Application &app,
             const ErmsController &controller, std::uint64_t seed)
{
    SimConfig config;
    config.horizonMinutes = 4;
    config.warmupMinutes = 1;
    config.seed = seed;
    Simulation sim(catalog, config);
    auto monitor = std::make_shared<telemetry::SimMonitor>();
    sim.setMonitor(monitor.get());

    TelemetryFaultConfig faults;
    faults.seed = deriveRunSeed(0x7e57, seed);
    faults.scrapeDropProbability = 0.3;
    faults.outlierProbability = 0.4;
    faults.blackoutsPerMinute = 1.0;
    auto base = std::make_shared<FaultyTelemetryView>(
        *monitor, faults, config.hostCount,
        static_cast<SimTime>(config.horizonMinutes) * kMinuteUs);

    std::vector<ServiceSpec> services;
    std::vector<MicroserviceId> managed;
    for (const auto &graph : app.graphs) {
        ServiceWorkload svc;
        svc.id = graph.service();
        svc.graph = &graph;
        svc.slaMs = 300.0;
        svc.rate = 6000.0;
        sim.addService(svc);
        ServiceSpec spec;
        spec.id = graph.service();
        spec.graph = &graph;
        spec.slaMs = 300.0;
        spec.workload = 6000.0;
        services.push_back(spec);
        for (MicroserviceId id : graph.nodes())
            managed.push_back(id);
    }
    sim.applyPlan(controller.plan(services, Interference{0.2, 0.2}));

    auto guard = std::make_shared<GuardedTelemetryView>(base);
    AdaptiveTunerConfig tuner_config;
    tuner_config.overRejectCycles = 2;
    tuner_config.cooldownCycles = 1;
    auto tuner = std::make_shared<AdaptiveGuardTuner>(
        knobsFrom(guard->config(), 1.25, 0.25), tuner_config);
    sim.setMinuteCallback(makeSelfTuningController(
        makeDynamicController(controller, services, guard), guard,
        managed, tuner));
    sim.run();

    TunedRunResult result;
    result.requestsCompleted = sim.metrics().requestsCompleted;
    result.adjustments = tuner->adjustments().size();
    for (const auto &graph : app.graphs) {
        auto it = sim.metrics().endToEndMs.find(graph.service());
        if (it == sim.metrics().endToEndMs.end())
            continue;
        result.latencies.insert(result.latencies.end(),
                                it->second.samples().begin(),
                                it->second.samples().end());
    }
    return result;
}

TEST(SelfTuningDeterminism, TwentySeedsByteIdenticalAcrossRunnerThreads)
{
    MicroserviceCatalog catalog;
    const Application app = makeMotivationShared(catalog, 0);
    ErmsController controller(catalog, ErmsConfig{});

    const auto sweep = [&](const char *threads, int expect_workers) {
        EXPECT_EQ(setenv("ERMS_RUNNER_THREADS", threads, 1), 0);
        ParallelRunner runner;
        EXPECT_EQ(runner.workerCount(), expect_workers);
        std::vector<std::function<TunedRunResult()>> tasks;
        for (std::uint64_t i = 0; i < 20; ++i)
            tasks.push_back([&, i] {
                return runSelfTuned(catalog, app, controller,
                                    deriveRunSeed(0x5e1f, i));
            });
        return runner.runAll(std::move(tasks));
    };

    const std::vector<TunedRunResult> serial = sweep("1", 1);
    const std::vector<TunedRunResult> threaded = sweep("3", 3);
    unsetenv("ERMS_RUNNER_THREADS");

    ASSERT_EQ(serial.size(), threaded.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial[i].requestsCompleted,
                  threaded[i].requestsCompleted)
            << "seed index " << i;
        EXPECT_EQ(serial[i].adjustments, threaded[i].adjustments)
            << "seed index " << i;
        ASSERT_EQ(serial[i].latencies.size(), threaded[i].latencies.size());
        for (std::size_t j = 0; j < serial[i].latencies.size(); ++j)
            EXPECT_TRUE(sameBits(serial[i].latencies[j],
                                 threaded[i].latencies[j]))
                << "seed index " << i << " sample " << j;
    }
}

// ---------------------------------------------------------------------
// Guard internals as first-class telemetry
// ---------------------------------------------------------------------

/** Scripted view: every query answers a settable scalar. */
struct ScriptedView : telemetry::TelemetryView
{
    double rate = 0.0;
    double p95 = 0.0;
    double tail = 0.0;
    double staleness = 0.0;
    Interference itf{};
    int containers = -1;

    double observedRate(ServiceId) const override { return rate; }
    Interference clusterInterference() const override { return itf; }
    double serviceP95Ms(ServiceId) const override { return p95; }
    double microserviceTailMs(MicroserviceId) const override
    {
        return tail;
    }
    int containerCount(MicroserviceId) const override
    {
        return containers;
    }
    double stalenessMs(SimTime) const override { return staleness; }
};

TEST(GuardMetrics, RejectionAndTransitionCountersTrackGuardActivity)
{
    auto scripted = std::make_shared<ScriptedView>();
    GuardedTelemetryView guard(scripted);
    MetricsRegistry registry;
    guard.bindMetrics(registry);

    // All series register eagerly, before any activity.
    const auto counterValue = [&](const telemetry::Labels &labels) {
        return registry.counter("erms_guard_rejections_total", labels)
            .value();
    };
    EXPECT_EQ(counterValue({{"reason", "bounds"}, {"series", "rate"}}), 0u);

    // Bounds rejection on the rate series.
    scripted->rate = 500.0;
    guard.observedRate(0);
    scripted->rate = -3.0;
    guard.observedRate(0);
    EXPECT_EQ(counterValue({{"reason", "bounds"}, {"series", "rate"}}), 1u);

    // Clamp + outlier rejection on the service-P95 series.
    scripted->rate = 500.0;
    scripted->p95 = 100.0;
    for (int i = 0; i < 6; ++i)
        guard.serviceP95Ms(0);
    scripted->p95 = 10000.0;
    guard.serviceP95Ms(0);
    EXPECT_EQ(
        counterValue({{"reason", "clamp"}, {"series", "service_p95"}}),
        1u);
    scripted->p95 = 1.0;
    guard.serviceP95Ms(0);
    EXPECT_EQ(
        counterValue({{"reason", "outlier"}, {"series", "service_p95"}}),
        1u);

    // Drive NORMAL -> SUSPECT -> FALLBACK -> ... -> NORMAL and check
    // the per-edge transition counters plus the mode gauge.
    const double kStale = guard.config().maxStalenessMs + 1.0;
    scripted->p95 = 0.0;
    scripted->rate = 0.0;
    scripted->staleness = kStale;
    guard.beginCycle(0); // pending rejects also count; now SUSPECT+
    guard.beginCycle(0);
    EXPECT_EQ(guard.mode(), GuardMode::Fallback);
    scripted->staleness = 0.0;
    guard.beginCycle(0);
    guard.beginCycle(0); // recoveryCleanCycles=2 -> SUSPECT
    guard.beginCycle(0); // -> NORMAL
    EXPECT_EQ(guard.mode(), GuardMode::Normal);

    const auto edge = [&](const char *from, const char *to) {
        return registry
            .counter("erms_guard_transitions_total",
                     {{"from", from}, {"to", to}})
            .value();
    };
    EXPECT_EQ(edge("normal", "suspect"), 1u);
    EXPECT_EQ(edge("suspect", "fallback"), 1u);
    EXPECT_EQ(edge("fallback", "suspect"), 1u);
    EXPECT_EQ(edge("suspect", "normal"), 1u);
    EXPECT_EQ(registry.counter("erms_guard_transitions_total").value(),
              4u);
    EXPECT_EQ(guard.stats().transitions, 4u);
    EXPECT_DOUBLE_EQ(registry.gauge("erms_guard_mode").value(),
                     static_cast<double>(GuardMode::Normal));
    EXPECT_GT(
        registry.gauge("erms_guard_fallback_residency").value(), 0.0);
}

TEST(GuardMetrics, BindingIsOffPath)
{
    // Two guards over identical scripted streams — one bound to a
    // registry, one not — must answer every query bit-identically and
    // end with identical stats: recording is observation, not behavior.
    auto scripted = std::make_shared<ScriptedView>();
    GuardedTelemetryView plain(scripted);
    GuardedTelemetryView bound(scripted);
    MetricsRegistry registry;
    bound.bindMetrics(registry);

    const double kStale = GuardConfig{}.maxStalenessMs + 1.0;
    const double script[] = {100.0, 110.0, 105.0, 120.0,
                             -5.0,  1.0e9, 115.0, 0.0};
    for (int cycle = 0; cycle < 8; ++cycle) {
        scripted->staleness = cycle == 3 ? kStale : 0.0;
        plain.beginCycle(0);
        bound.beginCycle(0);
        scripted->p95 = script[cycle];
        scripted->rate = script[cycle];
        EXPECT_TRUE(sameBits(plain.serviceP95Ms(0), bound.serviceP95Ms(0)))
            << "cycle " << cycle;
        EXPECT_TRUE(
            sameBits(plain.observedRate(0), bound.observedRate(0)))
            << "cycle " << cycle;
        EXPECT_EQ(plain.mode(), bound.mode()) << "cycle " << cycle;
    }
    EXPECT_EQ(plain.stats().rejectedBounds, bound.stats().rejectedBounds);
    EXPECT_EQ(plain.stats().rejectedOutliers,
              bound.stats().rejectedOutliers);
    EXPECT_EQ(plain.stats().transitions, bound.stats().transitions);
}

// ---------------------------------------------------------------------
// Guard retune: live knob replacement semantics
// ---------------------------------------------------------------------

TEST(GuardRetune, AdjustsThresholdsButKeepsMemory)
{
    auto scripted = std::make_shared<ScriptedView>();
    GuardedTelemetryView guard(scripted);
    scripted->p95 = 100.0;
    for (int i = 0; i < 6; ++i)
        guard.serviceP95Ms(0);

    GuardConfig updated = guard.config();
    updated.madGateMultiplier = 16.0;
    guard.retune(updated);
    EXPECT_DOUBLE_EQ(guard.config().madGateMultiplier, 16.0);

    // Per-series memory carried over: a collapse is still rejected
    // against the pre-retune history.
    scripted->p95 = 1.0;
    guard.serviceP95Ms(0);
    EXPECT_EQ(guard.stats().rejectedOutliers, 1u);

    // Structural knob changes and invalid configs are rejected loudly.
    GuardConfig structural = guard.config();
    structural.outlierHistory = 16;
    EXPECT_THROW(guard.retune(structural), ErmsError);
    GuardConfig invalid = guard.config();
    invalid.madGateMultiplier = -1.0;
    EXPECT_THROW(guard.retune(invalid), ErmsError);
}

} // namespace
} // namespace erms
