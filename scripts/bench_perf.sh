#!/usr/bin/env bash
# Perf trajectories: rewrites BENCH_event_engine.json (absolute
# events/s of the dense and sparse raw queues and the largest
# simulation config, with the host CPU model and nproc; see
# docs/event_engine.md) and BENCH_sharded_scale.json (events/s and
# resident memory vs shard count on the 500-service / 1200-host
# catalog; see docs/sharding.md) at the repo root. Run on a quiet
# machine — background load skews the numbers.
#
# Usage: scripts/bench_perf.sh [jobs]   (default: 2)

set -euo pipefail
cd "$(dirname "$0")/.."
JOBS="${1:-2}"

cmake -B build -S .
cmake --build build -j"$JOBS" --target bench_event_engine bench_sharded_scale
# The benchmark itself exits nonzero when its repetitions did unequal
# work; set -e stops the script right there. It writes to a scratch
# path so a failed gate below never clobbers the committed file.
fresh="build/BENCH_event_engine.json"
./build/bench/bench_event_engine "$fresh"

# Equal-work gate on the written JSON: every raw repetition (dense and
# sparse) dispatched exactly its requested count, and every simulation
# repetition dispatched the same count as the committed
# BENCH_event_engine.json (the simulator's work for this config changes
# only with a deliberate behaviour change, which must then say so and
# update the file).
python3 - "$fresh" BENCH_event_engine.json <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
committed = json.load(open(sys.argv[2]))
raw = doc["raw_queue"]["rep_events"]
if any(n != doc["raw_events_requested"] for n in raw):
    sys.exit(f"raw_queue: dispatched {raw}, "
             f"requested {doc['raw_events_requested']}")
sparse = doc["raw_queue_sparse"]["rep_events"]
if any(n != doc["raw_sparse_events_requested"] for n in sparse):
    sys.exit(f"raw_queue_sparse: dispatched {sparse}, "
             f"requested {doc['raw_sparse_events_requested']}")
sim = doc["sim_largest"]["rep_events"]
prev = committed["sim_largest"]["rep_events"][0]
if len(set(sim)) != 1 or sim[0] != prev:
    sys.exit(f"sim_largest: dispatched {sim}, committed {prev}")
EOF
mv "$fresh" BENCH_event_engine.json

# Sharded-scale trajectory. The benchmark itself gates determinism
# (per-K event counts across worker counts, K=1 == unsharded) and
# exits nonzero on divergence; set -e stops the script right there.
./build/bench/bench_sharded_scale BENCH_sharded_scale.json

# Belt-and-braces gate on the written JSON: numbers quoted over
# diverging event counts between shard configurations never land in
# the repo. Counts must be identical across a config's repetitions
# (worker-thread determinism) and between K=1 and the unsharded
# reference; counts across different K > 1 are different RNG streams
# and are deliberately NOT compared.
python3 - BENCH_sharded_scale.json <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
for cfg in doc["shard_configs"]:
    if len(set(cfg["rep_events"])) != 1:
        sys.exit(f"shards={cfg['shards']}: event counts diverge "
                 f"across repetitions {cfg['rep_events']}")
single = next(c for c in doc["shard_configs"] if c["shards"] == 1)
if single["events"] != doc["unsharded"]["events"]:
    sys.exit(f"K=1 events {single['events']} != unsharded "
             f"{doc['unsharded']['events']}")
EOF

echo "== BENCH_event_engine.json =="
cat BENCH_event_engine.json
echo "== BENCH_sharded_scale.json =="
cat BENCH_sharded_scale.json
