#!/usr/bin/env bash
# Full pre-merge check: the tier-1 build + test verification, then an
# AddressSanitizer build exercising the fault-injection, telemetry
# chaos, and runner tests (the code paths with the hairiest object
# lifetimes: pooled call contexts, container erasure on crash, hedge
# cancellation, lazily cached perturbed snapshots), the golden,
# market, tuning, property and profiling-memo suites, an
# UndefinedBehaviorSanitizer pass over the numeric-heavy
# telemetry/guard/chaos/tuning paths (quantile interpolation, counter
# deltas, NaN/Inf guards, feedback-rule streak arithmetic) and the
# event engine (the calendar wheel's occupancy-bitmap shifts), a
# ThreadSanitizer pass over the parallel runner, the event engine, the
# single-flight profiling memo, and the sharded coordinator's merge
# path (concurrent shard controllers reading the merged telemetry
# view), determinism passes (the golden tables must come out
# identical with one worker vs the hardware default, and through the
# K=1 sharded coordinator vs the unsharded path; the tenant-market
# bench table must come out identical with one runner worker vs the
# hardware default; a chaos-campaign archive written with the default
# worker count must replay byte-identically in a fresh serial process;
# a sweep-lite knob sweep over an archived campaign must export
# byte-identical operating-curve JSON with one worker vs the default),
# and the documentation link-and-symbol checker.
#
# Usage: scripts/check.sh [jobs]   (default: 2)

set -euo pipefail
cd "$(dirname "$0")/.."
JOBS="${1:-2}"

echo "== tier-1: configure + build + ctest (build/) =="
cmake -B build -S .
cmake --build build -j"$JOBS"
ctest --test-dir build --output-on-failure

echo "== asan: fault + chaos + campaign + tuning + runner + golden + market + property tests (build-asan/) =="
cmake -B build-asan -S . -DERMS_SANITIZE=address
cmake --build build-asan -j"$JOBS" \
    --target erms_tests_sim erms_tests_runner erms_tests_golden \
             erms_tests_system erms_tests_telemetry erms_tests_chaos \
             erms_tests_campaign erms_tests_event_engine \
             erms_tests_queueing erms_tests_market erms_tests_tuning
./build-asan/tests/erms_tests_sim \
    --gtest_filter='Fault*:Resilience*'
./build-asan/tests/erms_tests_runner
./build-asan/tests/erms_tests_golden
./build-asan/tests/erms_tests_system \
    --gtest_filter='*Property*:*StatsMerge*:*HistogramMerge*:*TelemetryTransparency*'
# The process-wide profiling memo: shared futures, erased entries on a
# throwing sweep, copies handed to every caller.
./build-asan/tests/erms_tests_system --gtest_filter='*ProfilingMemo*'
./build-asan/tests/erms_tests_telemetry
./build-asan/tests/erms_tests_chaos
# The campaign suite's full-size runs are slow under ASan; the archive/
# replay and campaign-determinism contracts get their cross-process
# pass below, so the sanitizer focuses on the schedule/corruption/cache
# layers and the guarded-baseline transparency runs.
./build-asan/tests/erms_tests_campaign \
    --gtest_filter='CampaignAzSchedule.*:CampaignCorruption.*:CampaignFaultyViewCache.*:CampaignArms.*:CampaignArchive.MalformedDocumentThrows:CampaignBaselineTransparency.*'
./build-asan/tests/erms_tests_event_engine
./build-asan/tests/erms_tests_queueing \
    --gtest_filter='QueueingValidation.MM1*:QueueingValidation.ErlangC*'
./build-asan/tests/erms_tests_market
# The tuning suite's campaign-level contracts re-run full micro
# campaigns and are slow under ASan; the sweep-lite determinism gate
# below exercises the sweep/campaign stack natively, so the sanitizer
# focuses on the feedback rules, validation, reduction, metrics, and
# one end-to-end self-tuned replay.
./build-asan/tests/erms_tests_tuning \
    --gtest_filter='AdaptiveTuner.*:TunerConfigValidation.*:GuardrailConfigValidation.*:SweepReduction.*:SweepConfigValidation.*:GuardMetrics.*:GuardRetune.*:SelfTuningDeterminism.SelfTunedCampaignReplaysExactly'

echo "== ubsan: telemetry + guard + chaos + campaign + tuning numeric paths + event engine (build-ubsan/) =="
cmake -B build-ubsan -S . -DERMS_SANITIZE=undefined
cmake --build build-ubsan -j"$JOBS" \
    --target erms_tests_telemetry erms_tests_chaos erms_tests_campaign \
             erms_tests_sim erms_tests_tuning erms_tests_event_engine
UBSAN_OPTIONS=halt_on_error=1 ./build-ubsan/tests/erms_tests_telemetry
UBSAN_OPTIONS=halt_on_error=1 ./build-ubsan/tests/erms_tests_chaos
UBSAN_OPTIONS=halt_on_error=1 ./build-ubsan/tests/erms_tests_campaign \
    --gtest_filter='CampaignAzSchedule.*:CampaignCorruption.*:CampaignFaultyViewCache.*:CampaignArms.*:CampaignArchive.MalformedDocumentThrows:CampaignBaselineTransparency.*'
# The event queue's bitmap shifts and find-first-set, through the
# ordering fuzz and the queue's own unit tests.
UBSAN_OPTIONS=halt_on_error=1 ./build-ubsan/tests/erms_tests_sim \
    --gtest_filter='Fault*:Resilience*:EventQueue*'
UBSAN_OPTIONS=halt_on_error=1 ./build-ubsan/tests/erms_tests_event_engine
UBSAN_OPTIONS=halt_on_error=1 ./build-ubsan/tests/erms_tests_tuning \
    --gtest_filter='AdaptiveTuner.*:TunerConfigValidation.*:GuardrailConfigValidation.*:SweepReduction.*:SweepConfigValidation.*:GuardMetrics.*:GuardRetune.*:SelfTuningDeterminism.SelfTunedCampaignReplaysExactly'

echo "== tsan: parallel runner + event engine + snapshot path + profiling memo (build-tsan/) =="
cmake -B build-tsan -S . -DERMS_SANITIZE=thread
cmake --build build-tsan -j"$JOBS" \
    --target erms_tests_runner erms_tests_event_engine erms_tests_shard \
             erms_tests_system
./build-tsan/tests/erms_tests_runner
# The profiling memo is single-flight: eight runner tasks ask for one
# sweep at once, one computes and the rest wait on its shared future.
./build-tsan/tests/erms_tests_system --gtest_filter='*ProfilingMemo*'
# erms_tests_event_engine includes SnapshotThreads.*, which hammers the
# double-buffered Simulation::clusterSnapshot() path from reader
# threads while run() executes — the cross-thread surface the dispatch
# refactor introduced.
./build-tsan/tests/erms_tests_event_engine
# The sharded coordinator's cross-thread surface: lockstep rounds run
# shard resumes on runner workers while every shard's minute controller
# reads the shared merged telemetry view.
./build-tsan/tests/erms_tests_shard \
    --gtest_filter='ShardCoordinator.*'

echo "== runner determinism: golden tables with 1 worker vs default =="
ERMS_RUNNER_THREADS=1 ./build/tests/erms_tests_golden
./build/tests/erms_tests_golden

echo "== shard determinism: golden tables through the K=1 coordinator =="
ERMS_SHARDS=1 ./build/tests/erms_tests_golden

echo "== market determinism: tenant-market bench with 1 worker vs default =="
cmake --build build -j"$JOBS" --target bench_tenant_market
./build/bench/bench_tenant_market > /tmp/erms_market_default.txt
ERMS_RUNNER_THREADS=1 ./build/bench/bench_tenant_market \
    > /tmp/erms_market_serial.txt
cmp /tmp/erms_market_default.txt /tmp/erms_market_serial.txt

echo "== campaign replay determinism: archive with default workers, replay serial =="
cmake --build build -j"$JOBS" --target campaign_replay
./build/bench/campaign_replay write /tmp/erms_campaign_default.json med erms guarded
# The replay must reproduce the archived rows and scrape stream from
# the config alone — in a fresh process, pinned to one runner worker.
ERMS_RUNNER_THREADS=1 ./build/bench/campaign_replay replay \
    /tmp/erms_campaign_default.json
# And a serially-written archive must be byte-identical to the default
# one: campaigns never depend on the worker count.
ERMS_RUNNER_THREADS=1 ./build/bench/campaign_replay write \
    /tmp/erms_campaign_serial.json med erms guarded
cmp /tmp/erms_campaign_default.json /tmp/erms_campaign_serial.json

echo "== sweep determinism: sweep-lite over an archived campaign, 1 worker vs default =="
cmake --build build -j"$JOBS" --target bench_guard_tuning
# A tiny grid over a scenario rebuilt from an archived campaign: the
# operating-curve JSON (cells, curves, knee picks, safe bounds) must
# come out byte-identical regardless of the runner worker count.
./build/bench/bench_guard_tuning write-scenario /tmp/erms_tuning_scenario.json med
./build/bench/bench_guard_tuning sweep-lite /tmp/erms_sweep_default.json \
    /tmp/erms_tuning_scenario.json
ERMS_RUNNER_THREADS=1 ./build/bench/bench_guard_tuning sweep-lite \
    /tmp/erms_sweep_serial.json /tmp/erms_tuning_scenario.json
cmp /tmp/erms_sweep_default.json /tmp/erms_sweep_serial.json

echo "== docs: link and symbol check =="
scripts/check_docs.sh

echo "== all checks passed =="
