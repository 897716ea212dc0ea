#!/usr/bin/env bash
# Self-test for ghba-tidy: each check must fire on testdata/bad.cpp and
# stay silent on testdata/good.cpp. Run after building the tool:
#
#   tools/tidy/self_test.sh <path-to-ghba-tidy>
#
# Exits nonzero (and CI fails) if a check stops firing or over-triggers.
set -u

TOOL="${1:?usage: self_test.sh <path-to-ghba-tidy>}"
HERE="$(cd "$(dirname "$0")" && pwd)"
ROOT="$(cd "${HERE}/../.." && pwd)"
FLAGS=(-- -std=c++20 "-I${ROOT}/src")

fail=0

echo "== ghba-tidy self-test: bad.cpp must trip every check =="
bad_out="$("${TOOL}" "${HERE}/testdata/bad.cpp" "${FLAGS[@]}" 2>&1)"
bad_rc=$?
echo "${bad_out}"
if [ "${bad_rc}" -ne 1 ]; then
  echo "FAIL: expected exit 1 on bad.cpp, got ${bad_rc}" >&2
  fail=1
fi
for check in ghba-unchecked-status ghba-mutex-rank ghba-blocking-on-event-thread; do
  if ! grep -q "\[${check}\]" <<<"${bad_out}"; then
    echo "FAIL: check ${check} did not fire on bad.cpp" >&2
    fail=1
  fi
done
# bad.cpp encodes 7 numbered findings; a drop means a check regressed.
count="$(grep -c 'error:' <<<"${bad_out}")"
if [ "${count}" -lt 7 ]; then
  echo "FAIL: expected >= 7 diagnostics on bad.cpp, got ${count}" >&2
  fail=1
fi
# [7]: a loop that adopts the event role through a ThreadRoleGuard, with no
# annotation, must be scanned too.
if ! grep -q "event-thread function 'ghba::GuardedLoop::Loop'" <<<"${bad_out}"; then
  echo "FAIL: the ThreadRoleGuard-scoped event loop was not scanned" >&2
  fail=1
fi

echo "== ghba-tidy self-test: good.cpp must be clean =="
good_out="$("${TOOL}" "${HERE}/testdata/good.cpp" "${FLAGS[@]}" 2>&1)"
good_rc=$?
if [ "${good_rc}" -ne 0 ]; then
  echo "${good_out}"
  echo "FAIL: expected exit 0 on good.cpp, got ${good_rc}" >&2
  fail=1
fi

if [ "${fail}" -eq 0 ]; then
  echo "ghba-tidy self-test: OK"
fi
exit "${fail}"
