#!/bin/sh
# CI for the AutoCorres reproduction.
#
#   ./ci.sh            build, run the test suite, then drive the acc CLI
#                      over the C corpus in corpus/
#
# Exit-code contract exercised here: acc must exit 0/1/2 only, and for the
# corpus translate --keep-going must succeed outright (0) while lint may
# report findings (1) but must never crash (2).

set -eu

cd "$(dirname "$0")"

echo "== dune build: no warnings =="
# A warning is printed when its file is compiled, so a fresh checkout
# shows every one (with dune's shared cache off, which would restore a
# compiled file without its warnings); any printed warning fails the step.
BUILD_LOG=$(mktemp)
if ! DUNE_CACHE=disabled dune build > "$BUILD_LOG" 2>&1; then
  cat "$BUILD_LOG"
  rm -f "$BUILD_LOG"
  exit 1
fi
cat "$BUILD_LOG"
if grep -q "Warning" "$BUILD_LOG"; then
  echo "FAIL: dune build printed warnings" >&2
  rm -f "$BUILD_LOG"
  exit 1
fi
rm -f "$BUILD_LOG"

echo "== dune runtest =="
dune runtest

ACC=_build/default/bin/acc.exe

echo "== corpus: acc translate --keep-going =="
for f in corpus/*.c; do
  if ! "$ACC" translate --keep-going "$f" > /dev/null; then
    echo "FAIL: acc translate --keep-going $f" >&2
    exit 1
  fi
  echo "ok: $f"
done

echo "== corpus: no budget runs dry under the default budgets =="
# BudgetX counts every budget exhaustion of the run: analysis,
# summary and rewrite fuel, and a normalize call stopped at its pass
# limit.  Exhaustion is sound but costs polish, and the corpus needs none.
for f in corpus/*.c; do
  hits=$("$ACC" stats "$f" | awk 'NR == 1 && $NF != "BudgetX" { exit } NR == 3 { print $NF }')
  if [ "$hits" != "0" ]; then
    echo "FAIL: acc stats $f reports BudgetX '${hits}', not 0" >&2
    exit 1
  fi
  echo "ok: $f"
done

echo "== malformed command lines: exit 2, one stderr line =="
USAGE_ERR=$(mktemp)
for args in "--bogus" "--timeout nan" "--summary-rounds=-1" "--solver-branches 5"; do
  set +e
  # shellcheck disable=SC2086 # $args is a list of words
  "$ACC" translate $args corpus/max.c > /dev/null 2> "$USAGE_ERR"
  code=$?
  set -e
  lines=$(wc -l < "$USAGE_ERR")
  if [ "$code" -ne 2 ] || [ "$lines" -ne 1 ]; then
    echo "FAIL: acc translate $args exited $code with $lines stderr lines" >&2
    exit 1
  fi
  echo "ok: $args"
done
rm -f "$USAGE_ERR"

echo "== front end: hostile literals =="
# The lexer reads a literal's digits only until its value passes 2^64, so
# a million-digit literal is one linear-time type error, not a hang.  A
# leading 0 is octal (C99 6.4.4.1).
HOSTILE=$(mktemp -d)
{
  printf 'int f() { return '
  head -c 1000000 /dev/zero | tr '\0' '9'
  printf '; }\n'
} > "$HOSTILE/long.c"
set +e
timeout 10 "$ACC" translate "$HOSTILE/long.c" > /dev/null 2> "$HOSTILE/err"
code=$?
set -e
lines=$(wc -l < "$HOSTILE/err")
if [ "$code" -ne 2 ] || [ "$lines" -ne 1 ]; then
  echo "FAIL: a 1,000,000-digit literal exited $code with $lines stderr lines" >&2
  exit 1
fi
echo "ok: 1,000,000-digit literal rejected: $(cat "$HOSTILE/err")"
printf 'int f() { return 010; }\n' > "$HOSTILE/octal.c"
if ! timeout 10 "$ACC" translate "$HOSTILE/octal.c" | grep -q 'return 8$'; then
  echo "FAIL: 010 did not translate as octal 8" >&2
  exit 1
fi
echo "ok: 010 translates as return 8"
printf 'int f() { return 1; }\n/* never\n closed' > "$HOSTILE/comment.c"
set +e
timeout 10 "$ACC" translate "$HOSTILE/comment.c" > /dev/null 2> "$HOSTILE/err"
set -e
if ! grep -q ':2:1: .*unterminated comment' "$HOSTILE/err"; then
  echo "FAIL: an unterminated comment was not reported at 2:1: $(cat "$HOSTILE/err")" >&2
  exit 1
fi
echo "ok: unterminated comment reported at its opening: $(cat "$HOSTILE/err")"
rm -rf "$HOSTILE"

echo "== corpus: acc lint (findings allowed, crashes not) =="
for f in corpus/*.c; do
  set +e
  "$ACC" lint "$f" > /dev/null 2>&1
  code=$?
  set -e
  case "$code" in
    0|1) echo "ok: $f (exit $code)" ;;
    *)
      echo "FAIL: acc lint $f exited $code" >&2
      exit 1
      ;;
  esac
done

echo "== corpus: --jobs 4 output identical to --jobs 1 =="
for f in corpus/*.c; do
  seq_out=$("$ACC" translate --keep-going --diag-json "$f")
  par_out=$("$ACC" translate --keep-going --diag-json --jobs 4 "$f")
  if [ "$seq_out" != "$par_out" ]; then
    echo "FAIL: --jobs 4 diverged from --jobs 1 on $f" >&2
    exit 1
  fi
  echo "ok: $f"
done

echo "== corpus: acc analyze — determinism and discharge-rate floor =="
# PR 1's intraprocedural engine discharged 57% of the parser-emitted
# guards over this corpus.  The interprocedural engine must stay strictly
# above that floor, and its findings must not depend on --jobs.
BASELINE_PCT=57
total_guards=0
total_discharged=0
for f in corpus/*.c; do
  set +e
  out1=$("$ACC" analyze --json "$f"); c1=$?
  out4=$("$ACC" analyze --json --jobs 4 "$f"); c4=$?
  set -e
  case "$c1" in
    0|1) ;;
    *) echo "FAIL: acc analyze $f exited $c1" >&2; exit 1 ;;
  esac
  if [ "$c1" -ne "$c4" ] || [ "$out1" != "$out4" ]; then
    echo "FAIL: analyze --jobs 4 diverged from --jobs 1 on $f" >&2
    exit 1
  fi
  nums=$(printf '%s' "$out1" | sed 's/.*"summary":{"guards":\([0-9]*\),"discharged":\([0-9]*\).*/\1 \2/')
  g=${nums% *}
  d=${nums#* }
  total_guards=$(( total_guards + g ))
  total_discharged=$(( total_discharged + d ))
  echo "ok: $f ($d/$g discharged)"
done
rate=$(( 100 * total_discharged / total_guards ))
echo "corpus discharge rate: ${total_discharged}/${total_guards} (${rate}%)"
if [ "$rate" -le "$BASELINE_PCT" ]; then
  echo "FAIL: discharge rate ${rate}% not above the ${BASELINE_PCT}% intraprocedural baseline" >&2
  exit 1
fi

echo "== corpus: identity-free discharge (every Rule_guard_true mint removes a guard) =="
# The driver asks the kernel for a Rule_guard_true theorem only when the
# analyser's own walk changed the body, so each mint removes at least one
# guard: the rule's count is at most the guards the discharge provenance
# line attributes (intra + interproc + scrub_dead).
effort_out=$("$ACC" effort corpus/*.c)
minted=$(printf '%s\n' "$effort_out" | awk '$1 == "rule_guard_true" { print $2 }')
minted=${minted:-0}
removed=$(printf '%s\n' "$effort_out" \
  | sed -n 's/^discharge provenance: \([0-9]*\) intra, \([0-9]*\) interproc, \([0-9]*\) scrub_dead$/\1 \2 \3/p' \
  | awk '{ print $1 + $2 + $3 }')
if [ -z "$removed" ]; then
  echo "FAIL: acc effort printed no discharge provenance line" >&2
  exit 1
fi
if [ "$minted" -gt "$removed" ]; then
  echo "FAIL: $minted rule_guard_true mints but only $removed guards removed" >&2
  exit 1
fi
echo "ok: $minted rule_guard_true mints, $removed guards removed"

echo "== corpus: work counts (at most one l1, one heap and one word rule application per function; at most 526 in total) =="
# Deterministic counts, no timing.  L1 is one kernel step per function,
# so `acc effort` must report no more l1 applications than functions
# that reached L1 (level L1 or beyond in the --diag-json report).  Heap
# abstraction is one kernel step per function too: no more applications
# of the heap rules (named hl, hs_* or hv_*) than functions at level HL
# or WA.  So is word abstraction: no more applications of the word rules
# (named w_* or ws_*) than functions at level WA.
l1_apps=$(printf '%s\n' "$effort_out" | awk '$1 == "l1" { print $2 }')
l1_apps=${l1_apps:-0}
heap_apps=$(printf '%s\n' "$effort_out" \
  | awk '$1 == "hl" || $1 ~ /^h[sv]_/ { n += $2 } END { print n + 0 }')
word_apps=$(printf '%s\n' "$effort_out" \
  | awk '$1 ~ /^ws?_/ { n += $2 } END { print n + 0 }')
reached=0
heap_reached=0
word_reached=0
for f in corpus/*.c; do
  levels=$("$ACC" translate --keep-going --diag-json "$f" | grep -o '"level":"[A-Z0-9]*"')
  n=$(printf '%s\n' "$levels" | grep -c '"\(L1\|L2\|HL\|WA\)"' || true)
  h=$(printf '%s\n' "$levels" | grep -c '"\(HL\|WA\)"' || true)
  w=$(printf '%s\n' "$levels" | grep -c '"WA"' || true)
  reached=$(( reached + n ))
  heap_reached=$(( heap_reached + h ))
  word_reached=$(( word_reached + w ))
done
if [ "$reached" -eq 0 ] || [ "$l1_apps" -gt "$reached" ]; then
  echo "FAIL: $l1_apps l1 rule applications for $reached functions that reached L1" >&2
  exit 1
fi
echo "ok: $l1_apps l1 rule applications for $reached functions that reached L1"
if [ "$heap_reached" -eq 0 ] || [ "$heap_apps" -gt "$heap_reached" ]; then
  echo "FAIL: $heap_apps heap-abstraction rule applications for $heap_reached functions at HL or WA" >&2
  exit 1
fi
echo "ok: $heap_apps heap-abstraction rule applications for $heap_reached functions at HL or WA"
if [ "$word_reached" -eq 0 ] || [ "$word_apps" -gt "$word_reached" ]; then
  echo "FAIL: $word_apps word-abstraction rule applications for $word_reached functions at WA" >&2
  exit 1
fi
echo "ok: $word_apps word-abstraction rule applications for $word_reached functions at WA"
# The whole proof effort: the `total` line of `acc effort` may not exceed
# the 526 rule applications recorded when the rewrite engine began to
# replay each clean-up in one congruence step (1,291 before), and no
# reflexivity step remains (`eq_refl` is retired).
total_apps=$(printf '%s\n' "$effort_out" | awk '$1 == "total" { print $2 }')
if [ -z "$total_apps" ] || [ "$total_apps" -gt 526 ]; then
  echo "FAIL: ${total_apps:-no} rule applications in total over the corpus (at most 526)" >&2
  exit 1
fi
if printf '%s\n' "$effort_out" | awk '$1 == "eq_refl"' | grep -q .; then
  echo "FAIL: acc effort reports eq_refl applications" >&2
  exit 1
fi
echo "ok: $total_apps rule applications in total over the corpus (at most 526), no eq_refl"

echo "== corpus: --no-interproc A/B (feature off = clean intraprocedural output) =="
# Toggling the summary engine off must restore the intraprocedural
# pipeline exactly — even beside a proof store warmed by interprocedural
# runs (summary digests are part of the store key, so the warm entries
# must not replay into a --no-interproc run).
AB_STORE=$(mktemp -d)
for f in corpus/*.c; do
  fresh=$("$ACC" translate --keep-going --diag-json --no-interproc "$f")
  "$ACC" translate --keep-going --store "$AB_STORE" "$f" > /dev/null
  warm=$("$ACC" translate --keep-going --diag-json --no-interproc --store "$AB_STORE" "$f")
  fresh_p=$(printf '%s' "$fresh" | sed 's/"store":{[^}]*}//')
  warm_p=$(printf '%s' "$warm" | sed 's/"store":{[^}]*}//')
  if [ "$fresh_p" != "$warm_p" ]; then
    echo "FAIL: --no-interproc output diverged beside a warm interprocedural store on $f" >&2
    exit 1
  fi
  echo "ok: $f"
done
rm -rf "$AB_STORE"

echo "== corpus: proof store — warm run byte-identical to cold, and faster =="
STORE_DIR=$(mktemp -d)
trap 'rm -rf "$STORE_DIR"' EXIT

# Three interleaved cold/warm cycles, accumulating wall time.  Each pass
# is one process over the whole corpus, printing one --diag-json line per
# file in argument order: a corpus file is under 1ms of pipeline work
# against ~5ms of process start-up, so one process per file would time
# start-up, not the store.  Interleaving keeps a slow scheduling epoch
# from landing entirely on one side of the ratio.
NFILES=$(ls corpus/*.c | wc -l)
cold_ns=0
warm_ns=0
for cycle in 1 2 3; do
  find "$STORE_DIR" -name '*.acc' -delete
  t0=$(date +%s%N)
  "$ACC" translate --keep-going --diag-json --store "$STORE_DIR" corpus/*.c > "$STORE_DIR/cold.json"
  t1=$(date +%s%N)
  "$ACC" translate --keep-going --diag-json --store "$STORE_DIR" corpus/*.c > "$STORE_DIR/warm.json"
  t2=$(date +%s%N)
  cold_ns=$(( cold_ns + t1 - t0 ))
  warm_ns=$(( warm_ns + t2 - t1 ))
  for pass in cold warm; do
    if [ "$(wc -l < "$STORE_DIR/$pass.json")" -ne "$NFILES" ]; then
      echo "FAIL: $pass store pass printed no line per corpus file (cycle $cycle)" >&2
      exit 1
    fi
  done
  # Counted, not timed: a warm pass reuses the summary walks its hits
  # recorded, so it walks no SCC at all.
  n=0
  for f in corpus/*.c; do
    n=$((n + 1))
    if ! sed -n "${n}p" "$STORE_DIR/warm.json" | grep -q '"summary_walks":0}'; then
      echo "FAIL: warm store run re-walked the summary analysis on $f (cycle $cycle)" >&2
      exit 1
    fi
  done
done

n=0
for f in corpus/*.c; do
  n=$((n + 1))
  # The result payloads must be byte-identical; only the store counters
  # (hits vs misses, summary walks) may differ between the runs.
  cold=$(sed -n "${n}p" "$STORE_DIR/cold.json")
  warm=$(sed -n "${n}p" "$STORE_DIR/warm.json")
  case "$warm" in
    "{\"file\":\"$f\","*) ;;
    *)
      echo "FAIL: line $n of the warm store pass is not $f's result" >&2
      exit 1
      ;;
  esac
  if [ "$(printf '%s' "$cold" | sed 's/"store":{[^}]*}//')" != \
       "$(printf '%s' "$warm" | sed 's/"store":{[^}]*}//')" ]; then
    echo "FAIL: warm store run diverged from cold on $f" >&2
    exit 1
  fi
  if printf '%s' "$warm" | grep -q '"store":{"hits":0'; then
    echo "FAIL: warm store run replayed nothing on $f" >&2
    exit 1
  fi
  echo "ok: $f"
done

cold_ms=$(( cold_ns / 1000000 ))
warm_ms=$(( warm_ns / 1000000 ))
echo "cold ${cold_ms}ms, warm ${warm_ms}ms (3 cycles)"
# Speedup floor: the warm passes take the search hints their entries
# hold (summary walks, discharge certificates) instead of searching.
# One process start-up per pass still lands on both sides and
# compresses the ratio toward 1 (typically 1.15-1.5x here); the floor
# only asserts that warm is reliably cheaper.  The real performance gate
# is the `gates` bench at the end, which asserts warm >= 2x cold in
# process, without start-up noise.
if [ $(( warm_ms * 21 )) -gt $(( cold_ms * 20 )) ]; then
  echo "FAIL: warm store runs (${warm_ms}ms) not >=1.05x faster than cold (${cold_ms}ms)" >&2
  exit 1
fi

# Counted, not timed: the bytes the cold pass banked.  Entries hold
# search hints only, 8,877 bytes over the corpus when this ceiling was
# set (42,525 when they held programs and derivation traces).  A larger
# figure means entries grew: raise the ceiling only with the reason.
STORE_BYTES_CEILING=10000
store_bytes=$("$ACC" cache stat --store "$STORE_DIR" | sed -n 's/.* entries, \([0-9]*\) bytes$/\1/p')
echo "store bytes after the cold pass: ${store_bytes} (ceiling ${STORE_BYTES_CEILING})"
if [ -z "$store_bytes" ] || [ "$store_bytes" -gt "$STORE_BYTES_CEILING" ]; then
  echo "FAIL: corpus proof store holds ${store_bytes:-?} bytes, above the ${STORE_BYTES_CEILING}-byte ceiling" >&2
  exit 1
fi

echo "== store crash-safety: kill -9 a writer mid-corpus, reopen, replay =="
# A writer process is SIGKILLed at several points while populating the
# store.  Whatever it managed to publish must be a consistent store:
# `cache doctor` must find no undetected-corrupt entries (atomic rename
# publishes whole entries or nothing; partials live only in tmp files,
# which doctor quarantines), and a warm replay over the survivors must be
# byte-identical to the cold reference.
CRASH_STORE=$(mktemp -d)
REF_DIR=$(mktemp -d)
for f in corpus/*.c; do
  "$ACC" translate --keep-going --diag-json "$f" > "$REF_DIR/$(basename "$f").json"
done
for delay in 0.05 0.15 0.30; do
  ( for f in corpus/*.c; do
      "$ACC" translate --keep-going --store "$CRASH_STORE" "$f" > /dev/null 2>&1
    done ) &
  wpid=$!
  sleep "$delay"
  kill -9 "$wpid" 2> /dev/null || true
  wait "$wpid" 2> /dev/null || true
done
doctor_out=$("$ACC" cache doctor --store "$CRASH_STORE" --grace 0)
echo "$doctor_out"
case "$doctor_out" in
  *" 0 corrupt"*) ;;
  *)
    echo "FAIL: cache doctor found undetected-corrupt entries after kill -9" >&2
    exit 1
    ;;
esac
for f in corpus/*.c; do
  warm=$("$ACC" translate --keep-going --diag-json --store "$CRASH_STORE" "$f" \
    | sed 's/"store":{[^}]*}//')
  ref=$(sed 's/"store":{[^}]*}//' "$REF_DIR/$(basename "$f").json")
  if [ "$warm" != "$ref" ]; then
    echo "FAIL: post-crash replay diverged from the cold reference on $f" >&2
    exit 1
  fi
  echo "ok: $f"
done
rm -rf "$CRASH_STORE"

echo "== store contention: two writers + concurrent gc, outputs identical =="
CONT_STORE=$(mktemp -d)
for f in corpus/*.c; do
  b=$(basename "$f")
  "$ACC" translate --keep-going --diag-json --store "$CONT_STORE" "$f" > "$CONT_STORE/a.$b.json" &
  pa=$!
  "$ACC" translate --keep-going --diag-json --store "$CONT_STORE" "$f" > "$CONT_STORE/b.$b.json" &
  pb=$!
  "$ACC" cache gc --store "$CONT_STORE" --max-entries 1024 > /dev/null
  wait "$pa" "$pb"
  a=$(sed 's/"store":{[^}]*}//' "$CONT_STORE/a.$b.json")
  c=$(sed 's/"store":{[^}]*}//' "$CONT_STORE/b.$b.json")
  ref=$(sed 's/"store":{[^}]*}//' "$REF_DIR/$b.json")
  if [ "$a" != "$ref" ] || [ "$c" != "$ref" ]; then
    echo "FAIL: contended writers diverged from the reference on $f" >&2
    exit 1
  fi
  echo "ok: $f"
done
doctor_out=$("$ACC" cache doctor --store "$CONT_STORE" --grace 0)
case "$doctor_out" in
  *" 0 corrupt"*) ;;
  *)
    echo "FAIL: cache doctor found corrupt entries after contention: $doctor_out" >&2
    exit 1
    ;;
esac
rm -rf "$CONT_STORE" "$REF_DIR"

echo "== serve fault-injection soak: 300 requests at io_error:0.01 and io_error:0.05 =="
# The same request stream through a clean session and an injected one
# per rate.  Each injected session must answer every request (zero
# session deaths) and every response must match the clean run once the
# store counters and diagnostics (fault injection adds warnings) are
# stripped.  The store retries each failed I/O attempt, so the responses
# alone cannot show that a fault fired: the injected sessions end with
# one `status` request, whose store `io_retries` must be above zero.
SOAK_DIR=$(mktemp -d)
i=0
while [ "$i" -lt 300 ]; do
  for f in corpus/*.c; do
    [ "$i" -lt 300 ] || break
    echo "translate $f" >> "$SOAK_DIR/reqs"
    i=$(( i + 1 ))
  done
done
cp "$SOAK_DIR/reqs" "$SOAK_DIR/reqs.status"
echo "status" >> "$SOAK_DIR/reqs.status"
strip_volatile() {
  sed 's/"store":{[^}]*}//; s/"diagnostics":\[[^]]*\]//' "$1"
}
"$ACC" serve --no-store < "$SOAK_DIR/reqs" > "$SOAK_DIR/clean"
strip_volatile "$SOAK_DIR/clean" > "$SOAK_DIR/clean.n"
for rate in 0.01 0.05; do
  if ! "$ACC" serve --store "$SOAK_DIR/store.$rate" --inject "io_error:$rate,seed:7" \
      < "$SOAK_DIR/reqs.status" > "$SOAK_DIR/out" 2> /dev/null; then
    echo "FAIL: injected serve session died at io_error:$rate" >&2
    exit 1
  fi
  answered=$(wc -l < "$SOAK_DIR/out")
  if [ "$answered" -ne 301 ]; then
    echo "FAIL: injected serve answered $answered of 301 requests at io_error:$rate" >&2
    exit 1
  fi
  head -n 300 "$SOAK_DIR/out" > "$SOAK_DIR/out.300"
  if ! strip_volatile "$SOAK_DIR/out.300" > "$SOAK_DIR/out.n" \
     || ! cmp -s "$SOAK_DIR/clean.n" "$SOAK_DIR/out.n"; then
    echo "FAIL: injected serve output diverged from the clean session at io_error:$rate" >&2
    diff "$SOAK_DIR/clean.n" "$SOAK_DIR/out.n" | head -5 >&2 || true
    exit 1
  fi
  retries=$(tail -n 1 "$SOAK_DIR/out" | sed -n 's/.*"io_retries":\([0-9]*\).*/\1/p')
  if [ -z "$retries" ] || [ "$retries" -le 0 ]; then
    echo "FAIL: no store I/O attempt was retried at io_error:$rate (io_retries '${retries}')" >&2
    exit 1
  fi
  echo "ok: io_error:$rate 300/300 answered, zero divergence, $retries I/O attempts retried"
done
rm -rf "$SOAK_DIR"

echo "== socket serve: 4 concurrent clients, clean + 5% io faults, SIGTERM drain =="
# Four clients pipeline translate/lint streams into one socket server,
# clean and with socket-I/O fault injection.  Every client's response
# stream must be byte-identical to the same requests through sequential
# stdin mode (no stripping: --no-store keeps responses history-free),
# the server must survive the faults (zero session deaths) and exit 0
# on SIGTERM.
SOCK_DIR=$(mktemp -d)
SOCK="$SOCK_DIR/acc.sock"
for c in 1 2 3 4; do
  : > "$SOCK_DIR/req.$c"
  for f in corpus/*.c; do
    echo "translate $f" >> "$SOCK_DIR/req.$c"
    echo "lint $f" >> "$SOCK_DIR/req.$c"
  done
  echo "frob$c x" >> "$SOCK_DIR/req.$c"
  "$ACC" serve --no-store < "$SOCK_DIR/req.$c" > "$SOCK_DIR/ref.$c"
done
for inject in "" "--inject io_error:0.05,seed:11"; do
  # shellcheck disable=SC2086
  "$ACC" serve --no-store --socket "$SOCK" --max-inflight 256 $inject &
  spid=$!
  while [ ! -S "$SOCK" ]; do sleep 0.05; done
  cpids=""
  for c in 1 2 3 4; do
    "$ACC" serve --connect "$SOCK" < "$SOCK_DIR/req.$c" > "$SOCK_DIR/out.$c" &
    cpids="$cpids $!"
  done
  # shellcheck disable=SC2086
  wait $cpids
  kill -TERM "$spid"
  if ! wait "$spid"; then
    echo "FAIL: socket server did not exit 0 on SIGTERM (inject='$inject')" >&2
    exit 1
  fi
  for c in 1 2 3 4; do
    if ! cmp -s "$SOCK_DIR/ref.$c" "$SOCK_DIR/out.$c"; then
      echo "FAIL: socket client $c diverged from stdin mode (inject='$inject')" >&2
      diff "$SOCK_DIR/ref.$c" "$SOCK_DIR/out.$c" | head -5 >&2 || true
      exit 1
    fi
  done
  echo "ok: 4 concurrent clients byte-identical to stdin mode (inject='${inject:-none}')"
done

echo "== socket serve: backpressure sheds structured errors =="
# A 200-request flood into --max-inflight 2 (the --connect client
# pipelines, so requests arrive faster than they execute): every line
# still gets exactly one response, the overflow as the structured
# overload error — never a hang, never a dropped request.
"$ACC" serve --no-store --socket "$SOCK" --max-inflight 2 &
spid=$!
while [ ! -S "$SOCK" ]; do sleep 0.05; done
seq 1 200 | sed 's/^/flood/; s/$/ x/' > "$SOCK_DIR/flood"
"$ACC" serve --connect "$SOCK" < "$SOCK_DIR/flood" > "$SOCK_DIR/flood.out"
lines=$(wc -l < "$SOCK_DIR/flood.out")
shed=$(grep -c '^{"ok":false,"error":"overloaded"}$' "$SOCK_DIR/flood.out" || true)
if [ "$lines" -ne 200 ]; then
  echo "FAIL: flood got $lines responses, want 200" >&2
  exit 1
fi
if [ "$shed" -eq 0 ]; then
  echo "FAIL: max-inflight 2 under a 200-request flood shed nothing" >&2
  exit 1
fi
kill -TERM "$spid"
if ! wait "$spid"; then
  echo "FAIL: shed-test server did not exit 0 on SIGTERM" >&2
  exit 1
fi
echo "ok: 200/200 answered, $shed shed as structured errors"
rm -rf "$SOCK_DIR"

echo "== obs: tracing is byte-invisible and traces validate =="
OBS_DIR=$(mktemp -d)
# Traced vs untraced corpus translate: stdout and stderr byte-identical,
# and the emitted trace passes the validator (balanced B/E per thread,
# monotone timestamps, valid pids/tids).
# shellcheck disable=SC2086
"$ACC" translate --keep-going --no-store corpus/*.c \
  > "$OBS_DIR/t.plain" 2> "$OBS_DIR/t.plain.err"
# shellcheck disable=SC2086
"$ACC" translate --keep-going --no-store --trace "$OBS_DIR/t.json" corpus/*.c \
  > "$OBS_DIR/t.traced" 2> "$OBS_DIR/t.traced.err"
if ! cmp -s "$OBS_DIR/t.plain" "$OBS_DIR/t.traced"; then
  echo "FAIL: --trace changed translate stdout" >&2
  exit 1
fi
if ! cmp -s "$OBS_DIR/t.plain.err" "$OBS_DIR/t.traced.err"; then
  echo "FAIL: --trace changed translate stderr" >&2
  exit 1
fi
"$ACC" trace --validate "$OBS_DIR/t.json"
# The dedicated trace driver, in both formats.
# shellcheck disable=SC2086
"$ACC" trace -o "$OBS_DIR/d.json" corpus/*.c > /dev/null
"$ACC" trace --validate "$OBS_DIR/d.json"
# shellcheck disable=SC2086
"$ACC" trace -o "$OBS_DIR/d.jsonl" --trace-format jsonl corpus/*.c > /dev/null
echo "ok: traced translate byte-identical; traces validate"

echo "== obs: traced serve session is byte-identical =="
# A 72-request serve session (translate + lint over the corpus, twice):
# traced responses byte-identical to untraced, and the serve trace
# (request lifecycle spans) validates.
: > "$OBS_DIR/serve.req"
for pass in 1 2; do
  for f in corpus/*.c; do
    echo "translate $f" >> "$OBS_DIR/serve.req"
    echo "lint $f" >> "$OBS_DIR/serve.req"
  done
done
"$ACC" serve --no-store < "$OBS_DIR/serve.req" > "$OBS_DIR/serve.plain"
"$ACC" serve --no-store --trace "$OBS_DIR/serve.json" < "$OBS_DIR/serve.req" \
  > "$OBS_DIR/serve.traced"
if ! cmp -s "$OBS_DIR/serve.plain" "$OBS_DIR/serve.traced"; then
  echo "FAIL: --trace changed serve responses" >&2
  exit 1
fi
"$ACC" trace --validate "$OBS_DIR/serve.json"
nreq=$(wc -l < "$OBS_DIR/serve.req")
echo "ok: $nreq-request traced serve session byte-identical; trace validates"
rm -rf "$OBS_DIR"

echo "== telemetry soak: 4 clients + /metrics scrape + SIGUSR1 flight dump =="
# Four clients soak a fault-injected socket server with the whole
# telemetry plane armed (scrape port, flight recorder, slow log).
# Mid-soak the scrape endpoints are curled and the flight recorder is
# dumped with SIGUSR1; the dump must pass `acc trace --validate`, the
# scrape must be OpenMetrics text ending in `# EOF`, and every client's
# response stream must stay byte-identical to the untelemetered
# reference — telemetry must never leak into request output.
TEL_DIR=$(mktemp -d)
TSOCK="$TEL_DIR/acc.sock"
MPORT=$((22000 + $$ % 10000))
for c in 1 2 3 4; do
  : > "$TEL_DIR/req.$c"
  for pass in 1 2 3; do
    for f in corpus/*.c; do
      echo "translate $f" >> "$TEL_DIR/req.$c"
      echo "lint $f" >> "$TEL_DIR/req.$c"
    done
  done
  "$ACC" serve --no-store < "$TEL_DIR/req.$c" > "$TEL_DIR/ref.$c"
done
# 4 clients x 3 corpus passes pipeline ~384 requests; --max-inflight must
# exceed that or the backpressure shedder (correctly) answers "overloaded"
# and the byte-compare below sees the shed, not a telemetry leak.
"$ACC" serve --no-store --socket "$TSOCK" --max-inflight 1024 \
  --inject io_error:0.05,seed:11 \
  --metrics-port "$MPORT" \
  --flight-recorder 8192 --flight-dump "$TEL_DIR/flight.json" \
  --slow-ms 0 --slow-log "$TEL_DIR/slow.jsonl" &
spid=$!
while [ ! -S "$TSOCK" ]; do sleep 0.05; done
cpids=""
for c in 1 2 3 4; do
  "$ACC" serve --connect "$TSOCK" < "$TEL_DIR/req.$c" > "$TEL_DIR/out.$c" &
  cpids="$cpids $!"
done
sleep 0.3
curl -fsS "http://127.0.0.1:$MPORT/healthz" > "$TEL_DIR/healthz" &&
  grep -q "ok" "$TEL_DIR/healthz"
curl -fsS "http://127.0.0.1:$MPORT/readyz" > /dev/null
curl -fsS "http://127.0.0.1:$MPORT/metrics" > "$TEL_DIR/metrics.midsoak"
kill -USR1 "$spid"
tries=0
until [ -s "$TEL_DIR/flight.json" ] || [ $tries -ge 100 ]; do
  sleep 0.05; tries=$((tries + 1))
done
"$ACC" trace --validate "$TEL_DIR/flight.json"
# shellcheck disable=SC2086
wait $cpids
# The final status verb, then the final scrape: every serve counter the
# scrape exposes must equal the status field it reads from the same owner.
echo status | "$ACC" serve --connect "$TSOCK" > "$TEL_DIR/status.final"
curl -fsS "http://127.0.0.1:$MPORT/metrics" > "$TEL_DIR/metrics.final"
kill -TERM "$spid"
if ! wait "$spid"; then
  echo "FAIL: telemetered server did not exit 0 on SIGTERM" >&2
  exit 1
fi
for out in metrics.midsoak metrics.final; do
  if ! tail -c 6 "$TEL_DIR/$out" | grep -q "# EOF"; then
    echo "FAIL: $out is not terminated OpenMetrics text" >&2
    exit 1
  fi
done
for series in acc_serve_requests_total acc_serve_request_latency_s_bucket \
              acc_trace_dropped_events_total acc_kernel_rule_applications_total; do
  if ! grep -q "^$series" "$TEL_DIR/metrics.final"; then
    echo "FAIL: /metrics is missing the $series series" >&2
    exit 1
  fi
done
python3 - "$TEL_DIR/status.final" "$TEL_DIR/metrics.final" <<'PYEOF'
import json, sys
status = json.loads(open(sys.argv[1]).read())
samples = {}
for line in open(sys.argv[2]):
    if line.startswith("acc_") and "{" not in line:
        name, value = line.split()
        samples[name] = float(value)
pairs = [
    ("requests", status["requests"]), ("failures", status["failures"]),
    ("degraded", status["degraded"]),
    ("requests_over_deadline", status["requests_over_deadline"]),
    ("store_hits", status["store"]["hits"]), ("store_misses", status["store"]["misses"]),
    ("shed", status["sched"]["shed"]),
]
for field, want in pairs:
    got = samples.get(f"acc_serve_{field}_total")
    assert got == want, f"/metrics acc_serve_{field}_total = {got}, status says {want}"
# the ring keeps overwriting after the status answer: the later scrape
# may only have dropped more
dropped = samples["acc_trace_dropped_events_total"]
assert dropped >= status["dropped"], f"/metrics dropped {dropped} < status {status['dropped']}"
print(f"final /metrics equals final status on {len(pairs)} serve counters")
PYEOF
for c in 1 2 3 4; do
  if ! cmp -s "$TEL_DIR/ref.$c" "$TEL_DIR/out.$c"; then
    echo "FAIL: telemetered client $c diverged from untelemetered reference" >&2
    diff "$TEL_DIR/ref.$c" "$TEL_DIR/out.$c" | head -5 >&2 || true
    exit 1
  fi
done
if [ ! -s "$TEL_DIR/slow.jsonl" ]; then
  echo "FAIL: --slow-ms 0 produced no slow-log records" >&2
  exit 1
fi
python3 - "$TEL_DIR/slow.jsonl" <<'PYEOF'
import json, sys
n = 0
for line in open(sys.argv[1]):
    rec = json.loads(line)
    for k in ("rid", "verb", "latency_ms"):
        assert k in rec, f"slow-log record missing {k}: {rec}"
    n += 1
print(f"slow log: {n} records, all parse")
PYEOF
nreq=$(wc -l < "$TEL_DIR/req.1")
echo "ok: 4x$nreq-request telemetered soak byte-identical; flight dump and scrape validate"
rm -rf "$TEL_DIR"

echo "== interproc bench (asserts discharge rate > 57%, inter >= intra on every workload, kernel re-validation) =="
dune exec bench/main.exe -- interproc > /dev/null

echo "== gates bench (asserts store warm >= 2x cold, net 4 clients >= 1.2x 1, obs off <= 1% and on <= 1.05x, telemetry disabled <= 1.01x and armed <= 1.05x) =="
dune exec bench/main.exe -- gates > /dev/null

echo "CI OK"
