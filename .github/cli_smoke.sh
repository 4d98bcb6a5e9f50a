#!/usr/bin/env bash
# CLI smoke run: an n = 2 verify, an n = 1 simulate, validate, solve and
# report of the tree demo, and a solve and validate of e1.  Each command
# must exit 0.  Run from the repository root with the package installed,
# under PYTHONWARNINGS=error::RuntimeWarning:
#   bash .github/cli_smoke.sh
set -euo pipefail
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

set -x
regimelq verify --config demos/configs/matrix_two_regime.yaml --output "$out"
regimelq simulate --config demos/configs/asym_two_regime.yaml --output "$out"
regimelq validate --config demos/configs/tree_random_q.yaml
regimelq solve --config demos/configs/tree_random_q.yaml --output "$out"
regimelq report --config demos/configs/tree_random_q.yaml --output "$out"
regimelq solve --config demos/configs/e1_scalar.yaml --output "$out"
python -m regimelq validate --config demos/configs/e1_scalar.yaml
