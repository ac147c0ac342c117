#!/usr/bin/env bash
# Build the benchmark under the release profile, then run it.  Every
# argument is passed through to the executable:
#
#   bash perfbench/run.sh --workload serve_mix --seed 1 --seconds 20 --trace 0
#
# Run from the repository root.  The build goes to its own build directory
# so it never disturbs a dev-profile _build, and the shared dune cache is
# off so nothing is written outside the checkout.
set -euo pipefail

build_dir=_perfbench_build
dune build --root . --build-dir "$build_dir" --profile release --cache=disabled \
  --display quiet ./perfbench/main.exe 1>&2

# Provenance the executable cannot see for itself: the commit (when this is
# a git checkout) and a digest of the library and benchmark sources.
commit=none
if [ -e .git ]; then commit=$(git rev-parse HEAD 2>/dev/null || echo none); fi
digest=$(find lib perfbench -type f \( -name '*.ml' -o -name '*.mli' -o -name dune \) \
  -print0 | LC_ALL=C sort -z | xargs -0 cat | sha256sum | cut -c1-16)
export PERFBENCH_COMMIT="$commit" PERFBENCH_SRC_DIGEST="$digest"
exec "$build_dir/default/perfbench/main.exe" "$@"
