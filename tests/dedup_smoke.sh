#!/usr/bin/env bash
#===- tests/dedup_smoke.sh - Subtree-dedup acceptance smoke --------------===#
#
# Part of txdpor, a reproduction of "Dynamic Partial Order Reduction for
# Checking Correctness against Transaction Isolation Levels" (PLDI 2023).
#
# The acceptance gate of the session-symmetry reduction (core/Dedup.h):
# on the identical-sessions workload --dedup=symmetry must explore
# strictly fewer histories than --dedup=off while agreeing on the
# violation verdict, and on a structurally asymmetric workload it must
# build no table and change nothing at all. Registered with ctest as
# dedup_smoke; run manually as: tests/dedup_smoke.sh path/to/txdpor-cli
#
#===----------------------------------------------------------------------===#

set -u

CLI="${1:?usage: dedup_smoke.sh path/to/txdpor-cli}"
failures=0

# run <args...> — runs the CLI, captures stdout into $out and the exit
# code into $rc; any non-zero exit is itself a failure.
run() {
  out="$("$CLI" "$@" 2>&1)"
  rc=$?
  if [ "$rc" -ne 0 ]; then
    echo "FAIL: '$CLI $*' exited $rc: $out" >&2
    failures=$((failures + 1))
  fi
}

# histories <output> — the explored-history count of the summary line
# ("CC: 91 histories, ...").
histories() {
  printf '%s\n' "$1" | sed -n 's/^.*: \([0-9][0-9]*\) histories,.*$/\1/p' |
    head -n 1
}

# violations <output> — the violation count of the classification line
# ("classification against SER: 48 of 91 histories violate it").
violations() {
  printf '%s\n' "$1" |
    sed -n 's/^classification against .*: \([0-9][0-9]*\) of .*$/\1/p' |
    head -n 1
}

workload=(--app identical --sessions 3 --txns 2 --seed 1 --classify SER)

run "${workload[@]}"
off_out="$out"
off_hist="$(histories "$off_out")"
off_viol="$(violations "$off_out")"

run "${workload[@]}" --dedup=symmetry
sym_out="$out"
sym_hist="$(histories "$sym_out")"
sym_viol="$(violations "$sym_out")"

if [ -z "$off_hist" ] || [ -z "$sym_hist" ]; then
  echo "FAIL: could not parse history counts (off='$off_hist'," \
    "symmetry='$sym_hist')" >&2
  failures=$((failures + 1))
else
  # The reduction must bite: strictly fewer explored histories.
  if [ "$sym_hist" -ge "$off_hist" ]; then
    echo "FAIL: symmetry explored $sym_hist histories, expected strictly" \
      "fewer than the $off_hist of dedup=off" >&2
    failures=$((failures + 1))
  fi
  # ... and stay sound: identical violation verdict (both runs find a
  # violation, or neither does).
  off_has=$([ "${off_viol:-0}" -gt 0 ] && echo yes || echo no)
  sym_has=$([ "${sym_viol:-0}" -gt 0 ] && echo yes || echo no)
  if [ "$off_has" != "$sym_has" ]; then
    echo "FAIL: verdicts diverge: dedup=off violation=$off_has" \
      "($off_viol), symmetry violation=$sym_has ($sym_viol)" >&2
    failures=$((failures + 1))
  fi
  if ! printf '%s' "$sym_out" | grep -q "dedup (symmetry):"; then
    echo "FAIL: symmetry run did not report its dedup statistics" >&2
    failures=$((failures + 1))
  fi
fi

# On a structurally asymmetric workload (every tpcc session draws its
# own transaction mix) each session is its own symmetry class, so no
# table is built: zero probes, and the exploration is the dedup=off one.
asym=(--app tpcc --sessions 3 --txns 2 --seed 1 --classify SER)
run "${asym[@]}"
asym_off_hist="$(histories "$out")"
asym_off_viol="$(violations "$out")"
run "${asym[@]}" --dedup=symmetry
asym_sym_hist="$(histories "$out")"
asym_sym_viol="$(violations "$out")"
if ! printf '%s' "$out" | grep -q "skipped of 0 checked"; then
  echo "FAIL: the asymmetric run probed a dedup table: $out" >&2
  failures=$((failures + 1))
fi
if [ "$asym_sym_hist" != "$asym_off_hist" ] ||
  [ "$asym_sym_viol" != "$asym_off_viol" ]; then
  echo "FAIL: symmetry perturbed the asymmetric workload:" \
    "off=($asym_off_hist, $asym_off_viol)" \
    "symmetry=($asym_sym_hist, $asym_sym_viol)" >&2
  failures=$((failures + 1))
fi

if [ "$failures" -ne 0 ]; then
  echo "dedup_smoke: $failures assertion(s) failed" >&2
  exit 1
fi
echo "dedup_smoke: all assertions passed (identical: $off_hist -> $sym_hist)"
