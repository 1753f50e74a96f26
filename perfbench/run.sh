#!/usr/bin/env bash
# Builds the benchmark and the daemon it drives, then runs the benchmark.
# Run from the repository root:
#   bash perfbench/run.sh --workload <name> --seed N --seconds S --trace <0|1>
set -euo pipefail
cd "$(dirname "$0")/.."
# The engine's Default impls read DELIN_* knobs; the benchmark pins them.
while read -r var; do unset "$var"; done < <(compgen -e | grep '^DELIN_' || true)
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
# The tier-1 build (`cargo build --release`) builds only the root package,
# so the daemon binary is built here explicitly.
cargo build --release --offline --quiet -p delin-bench --bin delin_serve >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" --serve-bin "$CARGO_TARGET_DIR/release/delin_serve" "$@"
