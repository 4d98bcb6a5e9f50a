#!/usr/bin/env bash
# Bad copies of the e1 demo run file: `regimelq validate` must refuse each
# with exit status 1 and one "error: " line naming the key, no traceback.
# Run from the repository root with the package installed:
#   bash .github/bad_run_files.sh
set -euo pipefail
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

check() {
  sed "$1" demos/configs/e1_scalar.yaml > "$tmp/bad.yaml"
  if cmp -s demos/configs/e1_scalar.yaml "$tmp/bad.yaml"; then exit 1; fi
  status=0
  regimelq validate --config "$tmp/bad.yaml" 2> "$tmp/err.txt" || status=$?
  cat "$tmp/err.txt"
  test "$status" -eq 1
  test "$(head -c 7 "$tmp/err.txt")" = "error: "
  head -n 1 "$tmp/err.txt" | grep -qF "$2"
  if grep -q Traceback "$tmp/err.txt"; then exit 1; fi
}

check 's/^  i0: 1$/  i0: 7/' problem.i0
check 's/^  grid_steps: 2000$/  grid_steps: 0/' solver.grid_steps
check 's/^    - constant: \[0.5\]$/    - table: {times: [0.5, 0.8], values: [[1.0], [2.0]]}/' 'simulate.perturbations[0].table'
check 's/^  T: 1.0$/  T: !!int abc/' problem.T
check 's/^  T: 1.0$/  T: \&t 1.0/' problem.T
check 's/^  A: \[\[0.0\]\]$/  <<: {A: [[0.0]]}/' 'problem.<<'
check 's/^  Q: \[\[0.0\]\]$/  Q: [[.nan]]/' problem.Q
check 's/^  generator: \[\[-1.0, 1.0\], \[1.0, -1.0\]\]$/  generator: [[-1.0, x], [1.0, -1.0]]/' problem.generator
check 's/^  grid_steps: 2000$/&\n  psd_tol: 1.0e-6/' "unknown key solver.'psd_tol'"
check 's/^  dt: 0.001$/&\n  x0: [1.0]/' "unknown key simulate.'x0'"
