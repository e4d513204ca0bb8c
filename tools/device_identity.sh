#!/usr/bin/env bash
# Bit-identity gate for the device layer: the --device pcm path must
# produce byte-identical bench/example output to the pre-device-layer
# tree on every scheme. Runs a fixed, deterministic command set (text
# format, pinned --jobs, [runner] timing footer stripped) and prints one
# "sha256  name" line per command; CI diffs the result against the
# committed golden in tools/golden/device_pcm.sha256.
#
#   usage: tools/device_identity.sh BUILD_DIR [EXTRA_FLAGS...]
#
# Regenerate the golden after an intentional output change:
#   tools/device_identity.sh build --device pcm > tools/golden/device_pcm.sha256
set -euo pipefail

build="$1"
shift
extra=("$@")

run() {
  local name="$1"
  shift
  "$@" "${extra[@]}" | grep -v '^\[runner\]' \
    | sha256sum | sed "s/ -\$/  ${name}/"
}

run fig6        "$build/bench/bench_fig6" --pages 128 --endurance 1024 --trials 2 --jobs 2
run fig7        "$build/bench/bench_fig7" --pages 128 --endurance 1024 --writes 20000 --jobs 2
run fig8        "$build/bench/bench_fig8" --pages 128 --endurance 1024 --jobs 2
run fig9        "$build/bench/bench_fig9" --requests 20000 --jobs 2
run ablation    "$build/bench/bench_ablation" --pages 128 --endurance 1024 --jobs 2
run extensions  "$build/bench/bench_extensions" --pages 128 --endurance 1024 --jobs 2
run table2      "$build/bench/bench_table2"
run overhead    "$build/bench/bench_overhead"
run degradation "$build/bench/bench_degradation" --pages 256 --endurance 2048
run recovery    "$build/bench/bench_recovery" --writes 512 --trials 4 --jobs 2
run fleet       "$build/bench/bench_fleet" --scenario baseline_zipf_twl --jobs 2
run fleet_atk   "$build/bench/bench_fleet" --scenario attack_twl --jobs 2
# Corrupting profile: covers the snapshot-damage kinds and the fallback
# to the previous snapshot, which the two crash-only rows above never hit.
run fleet_corrupt "$build/bench/bench_fleet" --scenario corruption_twl --jobs 2
run service     "$build/bench/bench_service" --mode virtual --requests 4096 --chaos 64 --corruption --jobs 2
# Paced: the unpaced row above mostly sheds, so this one covers the
# accept path (journal brackets, snapshot rotation, crash recovery).
run service_paced "$build/bench/bench_service" --mode virtual --requests 4096 --chaos 64 --corruption --gap 2000 --jobs 2
run quickstart  "$build/examples/quickstart"
run attack_demo "$build/examples/attack_demo"
run crash_rec   "$build/examples/crash_recovery" --writes 200
run fault_tol   "$build/examples/fault_tolerance"
# Replays a recorded trace in loops: the loop count in its output moves if
# a simulator draws ahead of the writes it submits. A fixed --trace path,
# since the example prints it.
run trace_replay "$build/examples/trace_replay" --trace /tmp/twl_identity_replay.trc
