#!/usr/bin/env bash
#===- tests/cli_smoke.sh - CLI argument-handling smoke test --------------===#
#
# Part of txdpor, a reproduction of "Dynamic Partial Order Reduction for
# Checking Correctness against Transaction Isolation Levels" (PLDI 2023).
#
# Asserts the CLI's checked numeric option parsing: malformed, negative
# and out-of-range values must exit non-zero with a diagnostic on stderr
# (the pre-fix std::atoi path silently turned "--sessions abc" into 0 and
# wrapped "--sessions -1" to ~4x10^9), and the documented good invocations
# must keep exiting zero. Registered with ctest as cli_args_smoke; run
# manually as: tests/cli_smoke.sh path/to/txdpor-cli
#
#===----------------------------------------------------------------------===#

set -u

CLI="${1:?usage: cli_smoke.sh path/to/txdpor-cli}"
failures=0

# expect_reject <stderr-pattern> <args...> — the command must exit
# non-zero and print a matching diagnostic on stderr.
expect_reject() {
  local pattern="$1"
  shift
  local stderr
  stderr="$("$CLI" "$@" 2>&1 >/dev/null)"
  local status=$?
  if [ "$status" -eq 0 ]; then
    echo "FAIL: '$CLI $*' exited 0, expected a rejection" >&2
    failures=$((failures + 1))
  elif ! printf '%s' "$stderr" | grep -q "$pattern"; then
    echo "FAIL: '$CLI $*' stderr lacks /$pattern/: $stderr" >&2
    failures=$((failures + 1))
  fi
}

# expect_accept <args...> — the command must exit zero.
expect_accept() {
  if ! "$CLI" "$@" >/dev/null 2>&1; then
    echo "FAIL: '$CLI $*' exited non-zero, expected success" >&2
    failures=$((failures + 1))
  fi
}

# Malformed / negative numerics, both --opt=value and --opt value forms.
expect_reject "expects a non-negative integer" --sessions=abc
expect_reject "expects a non-negative integer" --sessions abc
expect_reject "expects a non-negative integer" --sessions=-1
expect_reject "expects a non-negative integer" --seed " -1"
expect_reject "expects a non-negative integer" --seed "+5"
expect_reject "does not take a value" --minimize=off
expect_reject "must be non-negative" --budget-ms=-5
expect_reject "must be non-negative" --budget-ms -5
expect_reject "expects an integer" --budget-ms=oops
expect_reject "expects a non-negative integer" --txns=1x
expect_reject "expects a non-negative integer" --seed=-7
expect_reject "expects a non-negative integer" --walks=many
expect_reject "expects a non-negative integer" --threads=-2
expect_reject "needs a value" --sessions
expect_reject "unknown option" --no-such-flag

# Fuzz-verb numerics go through the same checked path.
expect_reject "expects a non-negative integer" fuzz --iters=abc
expect_reject "must be one of true, RC, RA, CC" fuzz --levels S0=SI
expect_reject "expects a non-negative integer" fuzz --seed=-1
expect_reject "must be non-negative" fuzz --time-budget=-9
expect_reject "up to 100" fuzz --history-percent=101

# Dedup flag: bad modes (including the removed exact mode) are rejected,
# the baseline-explorer combinations are refused (dedup lives in the
# swapping engine), good forms accepted.
expect_reject "must be one of off, symmetry" --dedup=bogus
expect_reject "must be one of off, symmetry" --dedup=exact --sessions 2
expect_reject "needs the swapping explorer" --dedup --dfs --sessions 2
expect_reject "needs the swapping explorer" --dedup=symmetry --walks 8 \
  --sessions 2
expect_accept --app identical --sessions 2 --txns 1 --dedup
expect_accept --app identical --sessions 2 --txns 1 --dedup=symmetry
expect_accept --app identical --sessions 2 --txns 1 --dedup=off --dfs

# Level handling: --base restrictions, --levels spec validation.
expect_reject "unknown isolation level" --base=XX
expect_reject "must be one of true, RC, RA, CC" --base=SER
expect_reject "must be one of true, RC, RA, CC" --levels S0=SER
expect_reject "bad --levels entry" --levels S0-CC
expect_reject "names session S9" --sessions 2 --levels S9=RC
expect_reject "weaker than --filter" --levels S0=CC --filter RC --sessions 2

# Good invocations stay good (uniform, mixed, = and space forms).
expect_accept --app tpcc --sessions 2 --txns 1 --base CC
expect_accept --app=tpcc --sessions=2 --txns=1 --base=RC --budget-ms=5000
expect_accept --app tpcc --sessions 2 --txns 2 --levels S0=CC,S1=RC
expect_accept --app tpcc --sessions 2 --txns 2 --levels CC,RC --threads 2
expect_accept --app twitter --sessions 2 --txns 2 --mixed-workload

# Tracing flags: bad output paths and category specs are rejected up
# front (before the run burns its budget); --trace-categories is only
# meaningful with --trace.
expect_reject "cannot open" --sessions 2 --txns 1 --trace=/no/such/dir/t.json
expect_reject "unknown trace category" \
  --sessions 2 --txns 1 --trace=/tmp/cli_smoke_trace.$$.json \
  --trace-categories=explore,bogus
expect_reject "requires --trace" --sessions 2 --txns 1 --trace-categories=swap
expect_reject "unknown trace category" fuzz --iters 1 \
  --trace=/tmp/cli_smoke_trace.$$.json --trace-categories=fuzz,nope
expect_reject "cannot open" fuzz --iters 1 --trace=/no/such/dir/t.json

# A traced run must produce a non-empty JSON document (full validation
# lives in tools/check_trace.py and the TraceTest suite); a category
# filter that records nothing must still yield a valid file.
trace_out="/tmp/cli_smoke_trace.$$.json"
trap 'rm -f "$trace_out"' EXIT
for categories in "" "--trace-categories=fuzz"; do
  rm -f "$trace_out"
  # shellcheck disable=SC2086  # $categories is intentionally word-split
  expect_accept --app tpcc --sessions 2 --txns 2 --threads 2 \
    --trace="$trace_out" $categories
  if [ ! -s "$trace_out" ]; then
    echo "FAIL: --trace $categories left '$trace_out' missing/empty" >&2
    failures=$((failures + 1))
  elif ! grep -q '"traceEvents"' "$trace_out"; then
    echo "FAIL: '$trace_out' lacks a traceEvents array" >&2
    failures=$((failures + 1))
  fi
done

# expect_exit <code> <args...> — the command must exit with exactly
# <code> (the check-trace verdict contract: 0 consistent, 1 malformed,
# 2 violation, 3 undecided).
expect_exit() {
  local want="$1"
  shift
  "$CLI" "$@" >/dev/null 2>&1
  local status=$?
  if [ "$status" -ne "$want" ]; then
    echo "FAIL: '$CLI $*' exited $status, expected $want" >&2
    failures=$((failures + 1))
  fi
}

# Verb dispatch: unknown verbs and unreadable inputs are usage errors.
expect_reject "unknown verb" no-such-verb
expect_reject "cannot open" check-trace /no/such/file.jsonl
expect_reject "cannot open" gen-trace --out /no/such/dir/trace.jsonl
expect_reject "expects a non-negative integer" check-trace --window=abc

# The check-trace exit-code contract over the golden corpus.
traces="$(cd "$(dirname "$0")" && pwd)/traces"
expect_reject "prefix-closed causally-extensible" \
  check-trace "$traces/clean_tiny.litmus" --base SER
expect_exit 0 check-trace "$traces/clean_tiny.litmus" --base CC
expect_exit 0 check-trace "$traces/index_gap.jsonl" --base CC
expect_exit 2 check-trace "$traces/read_skew_rc.litmus" --base RC
expect_exit 2 check-trace "$traces/mixed_rc_cc.litmus"
expect_exit 0 check-trace "$traces/mixed_rc_cc.litmus" --base RC
expect_exit 3 check-trace "$traces/stale_read.litmus" --base CC --window 4
expect_exit 1 check-trace "$traces/malformed/truncated.jsonl"
expect_exit 1 check-trace "$traces/malformed/unknown_session.jsonl"
expect_exit 1 check-trace "$traces/malformed/unknown_writer.jsonl"
expect_exit 1 check-trace "$traces/malformed/duplicate_commit.jsonl"
expect_exit 1 check-trace "$traces/malformed/write_value_overflow.jsonl"
expect_exit 1 check-trace "$traces/malformed/write_value_fraction.jsonl"
expect_exit 1 check-trace "$traces/malformed/write_value_int64.jsonl"
# Uid tokens are decimal digits only, at most 2^32 - 1, and the init
# session is spelled "init": each of these was once read as some other
# transaction.
expect_exit 1 check-trace "$traces/malformed/uid_junk_suffix.jsonl"
expect_exit 1 check-trace "$traces/malformed/uid_plus_sign.jsonl"
expect_exit 1 check-trace "$traces/malformed/uid_negative.jsonl"
expect_exit 1 check-trace "$traces/malformed/uid_init_session.jsonl"
expect_exit 1 check-trace "$traces/malformed/uid_overflow.jsonl"
expect_exit 1 check-trace "$traces/malformed/uid_junk.litmus"

# gen-trace pipes into check-trace: clean stays clean under a small
# window, an injected anomaly exits 2, and the --repro trace is itself
# a valid check-trace input that reproduces the violation.
pipe_out="/tmp/cli_smoke_pipe.$$"
repro_out="/tmp/cli_smoke_repro.$$.litmus"
trap 'rm -f "$trace_out" "$pipe_out" "$repro_out"' EXIT
"$CLI" gen-trace --events 2000 --seed 3 --out "$pipe_out" >/dev/null 2>&1
expect_exit 0 check-trace "$pipe_out" --base CC --window 16
"$CLI" gen-trace --events 2000 --seed 3 --anomaly-at 100 \
  --out "$pipe_out" >/dev/null 2>&1
expect_exit 2 check-trace "$pipe_out" --base RC --window 16
"$CLI" check-trace "$pipe_out" --base RC --window 16 \
  --repro "$repro_out" >/dev/null 2>&1
if [ ! -s "$repro_out" ]; then
  echo "FAIL: check-trace --repro left '$repro_out' missing/empty" >&2
  failures=$((failures + 1))
else
  expect_exit 2 check-trace "$repro_out" --base RC
fi

if [ "$failures" -ne 0 ]; then
  echo "cli_smoke: $failures assertion(s) failed" >&2
  exit 1
fi
echo "cli_smoke: all assertions passed"
