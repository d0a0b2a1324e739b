#!/bin/bash
# End-to-end scenarios over the built binaries: the CLI, the bench harness,
# `taj serve` (stdin, socket, cache, admin channel) and `--cluster` (fork,
# SIGKILL, respawn).
#
#   test/e2e.sh [SCENARIO...]
#
# With no argument it runs the ten end-to-end scenarios below (`make e2e`);
# `work-counts` compares perfbench's deterministic counts with the pins in
# test/work_counts.json (`make work-counts`). Every run first empties the
# work directory _e2e; each scenario runs in its own subdirectory of it,
# and its steps run in order, because later steps read what earlier ones
# wrote. A trap kills every server a scenario started, pass or fail. The
# script stops at the first failing scenario, names it and exits 1.

set -u -o pipefail

ROOT=$(cd "$(dirname "$0")/.." && pwd)
WORK="$ROOT/_e2e"
BIN="$ROOT/_build/default/bin/taj_cli.exe"
BENCH="$ROOT/_build/default/bench/main.exe"
DEFAULT=(ir-verify bench-smoke refinement telemetry service incremental
         cluster observability triage contexts)

# ---------------------------------------------------------------------
# Helpers

exec 9>&2  # the script's stderr, for messages from redirected commands

fail() {
  echo "$*" >&9
  exit 1
}

# expect CODES CMD...: run CMD and fail unless its exit status is one of
# CODES, a |-separated list
expect() {
  local codes=$1 code=0
  shift
  "$@" || code=$?
  case "|$codes|" in *"|$code|"*) return 0 ;; esac
  fail "${1##*/} $2: exit $code, expected $codes"
}

# metric FILE NAME: the value of one row of a --metrics table
metric() {
  awk -v name="$2" '$1 == name {print $2}' "$1"
}

# positive_rate FILE: a `taj top` frame shows a throughput above 0
positive_rate() {
  local rate
  rate=$(grep -oP '\(\K[0-9.]+(?= jobs/s\))' "$1")
  awk -v r="$rate" 'BEGIN { exit !(r > 0) }' \
    || fail "top: throughput '$rate' jobs/s, expected above 0"
}

# a job line with id $1 carrying one inline unit with one XSS flow
inline_job() {
  printf '{"id":"%s","source":"%s"}\n' "$1" 'class Page extends HttpServlet { public void doGet(HttpServletRequest req, HttpServletResponse resp) { resp.getWriter().println(req.getParameter(\"x\")); } }'
}

# wait_for_sockets LOG SOCKET...: wait up to 20 s for every socket to
# appear; on a timeout show the server's log and fail
wait_for_sockets() {
  local log=$1 missing s
  shift
  for _ in $(seq 100); do
    missing=0
    for s in "$@"; do [ -S "$s" ] || missing=1; done
    [ "$missing" -eq 0 ] && return 0
    sleep 0.2
  done
  cat "$log"
  fail "sockets never appeared: $*"
}

# The servers a scenario started in the background and has not yet waited
# for. The EXIT trap of the scenario's subshell stops each: SIGTERM first,
# so that a server drains and reaps the workers it forked, and SIGKILL to
# all of them and everything they forked if any is still up after 10 s.
SERVERS=()

descendants() {
  local child
  echo "$1"
  for child in $(pgrep -P "$1"); do descendants "$child"; done
}

stop_servers() {
  local pid pids=()
  [ ${#SERVERS[@]} -gt 0 ] || return 0
  for pid in "${SERVERS[@]}"; do pids+=($(descendants "$pid")); done
  kill -TERM "${SERVERS[@]}" 2> /dev/null
  for _ in $(seq 50); do
    kill -0 "${SERVERS[@]}" 2> /dev/null || return 0
    sleep 0.2
  done
  kill -KILL "${pids[@]}" 2> /dev/null
  return 0
}

# The Python helpers every assertion step imports.
write_checks() {
  cat > "$WORK/checks.py" <<'EOF'
import json

TERMINAL = {"completed", "degraded", "rejected", "failed"}


def ndjson(path):
    return [json.loads(l) for l in open(path) if l.strip()]


def once(lines, ids, health=None):
    """Each of ids is answered exactly once with a terminal status, and
    every other line is a health snapshot (health of them, if given).
    Returns the answers by id and the snapshots."""
    snapshots = [l for l in lines if l.get("event") == "health"]
    if health is not None:
        assert len(snapshots) == health, \
            f"{len(snapshots)} health snapshots, expected {health}"
    seen = {}
    for l in lines:
        if l.get("event") != "health":
            seen.setdefault(l["id"], []).append(l)
    assert set(seen) == set(ids), f"jobs answered: {sorted(seen)}"
    for job, rs in seen.items():
        assert len(rs) == 1, f"{job} answered {len(rs)} times"
        assert rs[0]["status"] in TERMINAL, rs[0]
    return {job: rs[0] for job, rs in seen.items()}, snapshots


def trace(path, spans=(), min_spans=0, lanes=0, lane=None):
    """A Chrome trace-event file with events, the complete (ph X) spans
    named, at least min_spans span names, at least lanes process lanes,
    and lane among them. Returns the events, span names and lanes."""
    events = json.load(open(path))["traceEvents"]
    assert events, f"{path} has no events"
    names = {e["name"] for e in events if e.get("ph") == "X"}
    assert len(names) >= min_spans, \
        f"only {len(names)} distinct span names: {sorted(names)}"
    for span in spans:
        assert span in names, f"missing span {span}: {sorted(names)}"
    pids = {e["pid"] for e in events if "pid" in e}
    assert len(pids) >= lanes, f"expected {lanes} process lanes: {sorted(pids)}"
    assert lane is None or lane in pids, f"missing lane {lane}: {sorted(pids)}"
    return events, names, pids


def rows(path):
    """A `taj score` table by configuration, each row split on blanks."""
    table = {}
    for line in open(path).read().splitlines()[1:]:
        fields = line.split()
        if fields:
            table[fields[0]] = fields
    return table
EOF
}

# ---------------------------------------------------------------------
# Scenarios

# Every Table-2 app is generated to disk and re-loaded under --verify-ir;
# exit 6 means the frontend emitted malformed IR.
scenario_ir_verify() {
  local apps app desc
  apps=$("$BIN" apps | tail -n +2 | awk '{print $1}')
  [ -n "$apps" ]
  for app in $apps; do
    "$BIN" generate "$app" --scale 0.02 -o "gen/$app"
    desc=""
    [ -f "gen/$app/web.xml" ] && desc="-d gen/$app/web.xml"
    expect '0|2|4' "$BIN" analyze --verify-ir $desc gen/$app/*.mjava > /dev/null
    echo "$app: ok"
  done
}

scenario_bench_smoke() {
  expect 0 "$BENCH" table1
  expect 0 "$BENCH" scaling --scale 0.02
}

# Access-path refinement: scored runs with and without --refine; it loses
# no true positive, its Confirmed subset is at least as precise as the
# whole report, and a traced run carries the refine phase.
scenario_refinement() {
  local app
  for app in Friki BlueBlog; do
    "$BIN" score "$app" --scale 0.02 > "base-$app.txt"
    "$BIN" score "$app" --scale 0.02 --refine > "refined-$app.txt"
    cat "refined-$app.txt"
  done
  python3 - <<'EOF'
from checks import rows
for app in ["Friki", "BlueBlog"]:
    base = rows(f"base-{app}.txt")
    refined = rows(f"refined-{app}.txt")
    assert set(base) == set(refined), (app, sorted(base), sorted(refined))
    for cfg, b in base.items():
        r = refined[cfg]
        # columns: config issues TP FP FN accuracy [conf plaus conf-FP] time
        assert b[1:6] == r[1:6], \
            f"{app}/{cfg}: refinement changed the report: {b} vs {r}"
        fp, conf_fp = int(r[3]), int(r[8])
        assert conf_fp <= fp, \
            f"{app}/{cfg}: Confirmed subset less precise ({conf_fp} > {fp})"
        print(f"{app:10s} {cfg:20s} TP={r[2]} FP={fp} conf-FP={conf_fp}")
EOF
  "$BIN" score Friki --scale 0.02 --refine --trace refine-trace.json
  python3 - <<'EOF'
from checks import trace
_, spans, _ = trace("refine-trace.json", spans=["phase.refine"])
print(f"{len(spans)} span names, phase.refine present")
EOF
}

# A traced scoring run carries every pipeline phase span, and
# `taj analyze --json` carries every block of the report.
scenario_telemetry() {
  "$BIN" score Friki --scale 0.02 --trace trace.json --metrics
  python3 - <<'EOF'
from checks import trace
events, spans, _ = trace(
    "trace.json", min_spans=6,
    spans=["phase.frontend", "phase.pointer", "phase.sdg", "phase.taint",
           "pointer.fixpoint", "taint.rule"])
tids = {e["tid"] for e in events if e.get("ph") == "X"}
print(f"{len(events)} events, {len(spans)} span names, {len(tids)} domain tracks")
EOF
  "$BIN" generate Friki --scale 0.02 -o friki
  expect 2 "$BIN" analyze --json --metrics \
    -d friki/web.xml friki/unit_*.mjava > analyze.json
  expect 5 "$BIN" analyze --json -a triage \
    -d friki/web.xml friki/unit_*.mjava > triage.json
  python3 - <<'EOF'
import json
lines = open("analyze.json").read().splitlines()
assert len(lines) == 1, f"--json wrote {len(lines)} lines, expected one"
doc = json.loads(lines[0])
for key in ["issues", "completeness", "phases", "refined",
            "diagnostics", "attempts", "metrics"]:
    assert key in doc, f"missing top-level key {key}"
assert doc["issues"], "no issues on Friki"
keys = ["issue", "flows", "sink", "verdict", "sanitization",
        "remediation", "witness"]
for issue in doc["issues"]:
    assert list(issue) == keys, f"issue keys {list(issue)}"
hists = [v for v in doc["metrics"].values() if isinstance(v, dict)]
assert any("p50" in h for h in hists), "no histogram in metrics carries p50"
triage = json.load(open("triage.json"))
assert triage["completeness"] == "type_only", triage["completeness"]
assert triage["triage"]["findings"], "triage.findings is empty"
print(f"{len(doc['issues'])} issues, {len(doc['metrics'])} metrics, "
      f"{len(triage['triage']['findings'])} triage findings")
EOF
}

# The single-process service: a mixed batch (valid jobs, a fault-injected
# crasher, an over-deadline job, a bad and an unknown one) on stdin, the
# same batch from a half-closed socket client, and the result cache across
# a restart and under a new request id.
scenario_service() {
  local srv run hits rc=0
  {
    echo '{"id":"app-1","app":"BlueBlog","scale":0.02}'
    echo '{"id":"app-2","app":"Friki","scale":0.02}'
    inline_job inline-1
    echo '{"id":"crash-1","app":"BlueBlog","scale":0.02}'
    echo '{"id":"late-1","app":"BlueBlog","scale":0.02,"deadline":0.0}'
    echo '{"id":"bad-1"}'
    echo '{"id":"unknown-1","app":"NoSuchApp"}'
  } > batch.ndjson
  # a clean drain exits 0
  "$BIN" serve --workers 2 --seed 7 --arm job:crash-1@1@fail \
    --trace service-trace.json < batch.ndjson > responses.ndjson
  cat responses.ndjson
  python3 - <<'EOF'
from checks import ndjson, once, trace
by, health = once(ndjson("responses.ndjson"),
                  ["app-1", "app-2", "inline-1", "crash-1", "late-1",
                   "bad-1", "unknown-1"], health=1)
st = {job: a["status"] for job, a in by.items()}
assert st["app-1"] == "completed" and st["app-2"] == "completed", st
assert st["inline-1"] == "completed", st
assert st["crash-1"] == "failed", st
assert st["late-1"] in {"degraded", "failed"}, st
assert st["bad-1"] == "rejected" and st["unknown-1"] == "failed", st
h = health[0]
assert h["clean_drain"] is True, h
assert h["admitted"] == h["completed"] + h["degraded"] + h["failed"] + h["shed"], h
assert h["rejected_malformed"] == 1, h  # bad-1: neither app nor source
print(f"{len(by)} terminal responses, health: {h}")
trace("service-trace.json")
EOF

  # end of input ends a socket client's requests, not its answers
  "$BIN" serve --workers 2 --socket ./taj.sock --admin-socket ./admin.sock \
    2> socket-serve.log &
  srv=$!
  SERVERS+=("$srv")
  wait_for_sockets socket-serve.log taj.sock admin.sock
  python3 - <<'EOF'
import socket
from checks import ndjson, once
s = socket.socket(socket.AF_UNIX)
s.connect("./taj.sock")
s.sendall(open("batch.ndjson", "rb").read())
s.shutdown(socket.SHUT_WR)
buf = b""
while chunk := s.recv(65536):
    buf += chunk
open("socket-responses.ndjson", "wb").write(buf)
jobs = [j["id"] for j in ndjson("batch.ndjson")]
answers, _ = once(ndjson("socket-responses.ndjson"), jobs, health=0)
print(f"{len(answers)} answers for {len(jobs)} jobs over a half-closed connection")
EOF
  # a single process reports its latency and cache figures once
  "$BIN" top --once ./admin.sock > top.txt
  cat top.txt
  [ "$(grep -c '^latency' top.txt)" -eq 1 ] || fail "top: not one latency line"
  [ "$(grep -c 'hit' top.txt)" -eq 1 ] || fail "top: not one hit/miss figure"
  positive_rate top.txt
  kill -TERM "$srv"
  wait "$srv" || rc=$?
  SERVERS=()
  cat socket-serve.log
  [ "$rc" -eq 0 ] || fail "socket server exit $rc, expected a clean drain (0)"

  # a restarted taj serve answers from its cache, whole answers equal
  {
    echo '{"id":"app-1","app":"BlueBlog","scale":0.02}'
    inline_job inline-1
    echo '{"id":"ctx-1","app":"CtxForum","scale":0.02,"contexts":true}'
    echo '{"id":"app-2","app":"BlueBlog","scale":0.03}'
    echo '{"id":"app-3","app":"BlueBlog","scale":0.02}'
  } > cache-batch.ndjson
  for run in 1 2; do
    "$BIN" serve --workers 2 --metrics --cache servecache \
      < cache-batch.ndjson > "cache-run$run.ndjson" 2> "cache-run$run.metrics"
  done
  python3 - <<'EOF'
from checks import ndjson, once
def answers(path):
    by, _ = once(ndjson(path), ["app-1", "inline-1", "ctx-1", "app-2", "app-3"])
    return {j: {k: v for k, v in a.items() if k != "seconds"} for j, a in by.items()}
first, second = answers("cache-run1.ndjson"), answers("cache-run2.ndjson")
assert "mismatched" in first["ctx-1"], first
same_app = lambda a: {k: v for k, v in a.items() if k != "id"}
assert same_app(first["app-3"]) == same_app(first["app-1"]), first
assert first == second, (first, second)
print(f"identical answers across the restart: {second}")
EOF
  hits=$(metric cache-run2.metrics cache.result.hit)
  echo "cache.result.hit after the restart: $hits"
  test "$hits" -ge 5

  # a repeated inline source answers from the cache under a new id
  inline_job inline-2 > repeat-batch.ndjson
  "$BIN" serve --workers 2 --metrics --cache servecache \
    < repeat-batch.ndjson > repeat-run.ndjson 2> repeat-run.metrics
  python3 - <<'EOF'
from checks import ndjson, once
first, _ = once(ndjson("cache-run1.ndjson"),
                ["app-1", "inline-1", "ctx-1", "app-2", "app-3"])
repeat, _ = once(ndjson("repeat-run.ndjson"), ["inline-2"])
got = (repeat["inline-2"]["status"], repeat["inline-2"]["issues"])
assert got == ("completed", first["inline-1"]["issues"]), (first, repeat)
print(f"inline-1's source under a new id: {got}")
EOF
  hits=$(metric repeat-run.metrics cache.result.hit)
  echo "cache.result.hit for the repeat: $hits"
  test "$hits" -ge 1
}

# The incremental cache through `taj analyze --cache`: a cold run fills
# the store, a warm run reuses it byte-identically, a second configuration
# reuses the frontend tier, and a truncated store falls back cold.
scenario_incremental() {
  local first miss hit front store
  "$BIN" generate Friki --scale 0.02 -o gen
  expect '0|2' "$BIN" analyze --cache cachedir --metrics \
    gen/*.mjava > cold.txt 2> cold.metrics
  miss=$(metric cold.metrics cache.miss)
  hit=$(metric cold.metrics cache.hit)
  echo "cold: cache.miss=$miss cache.hit=$hit"
  test "$miss" -gt 0
  test "$hit" -eq 0
  test -n "$(ls cachedir)"

  # analyze never answers from the result tier, so the store must not
  # hold the report it printed
  first=$(head -n 1 cold.txt)
  echo "report's first line: $first"
  test -n "$first"
  if grep -a -F -q -- "$first" cachedir/*.tajcache; then
    fail "the store holds the report"
  fi

  expect '0|2' "$BIN" analyze --cache cachedir --metrics \
    gen/*.mjava > warm.txt 2> warm.metrics
  miss=$(metric warm.metrics cache.miss)
  hit=$(metric warm.metrics cache.hit)
  echo "warm: cache.miss=$miss cache.hit=$hit"
  test "$hit" -gt 0
  test "$miss" -eq 0
  diff cold.txt warm.txt

  expect '0|2' "$BIN" analyze -a ci --cache cachedir --metrics \
    gen/*.mjava > ci-cached.txt 2> ci-cached.metrics
  front=$(metric ci-cached.metrics cache.front.hit)
  echo "second configuration: cache.front.hit=$front"
  test "${front:-0}" -gt 0
  expect '0|2' "$BIN" analyze -a ci gen/*.mjava > ci-uncached.txt
  diff ci-uncached.txt ci-cached.txt

  store=$(ls cachedir/*.tajcache)
  truncate -s 7 "$store"
  expect '0|2' "$BIN" analyze --cache cachedir --metrics \
    gen/*.mjava > corrupt.txt 2> corrupt.metrics
  grep "falling back to cold" corrupt.metrics
  miss=$(metric corrupt.metrics cache.miss)
  echo "after corruption: cache.miss=$miss"
  test "$miss" -gt 0
  diff cold.txt corrupt.txt
}

# `taj serve --cluster 2` with one worker SIGKILLed mid-batch: every job
# still gets exactly one answer, the dead worker respawns and serves
# again, the drain stays clean and the merged trace has a lane per process.
scenario_cluster() {
  local srv pid i rc=0
  mkfifo jobs.fifo
  timeout 300 "$BIN" serve --cluster 2 --workers 1 --seed 7 \
    --respawn-base 0.1 --trace cluster-trace.json \
    < jobs.fifo > responses.ndjson 2> cluster.log &
  srv=$!
  SERVERS+=("$srv")
  exec 3> jobs.fifo
  for i in 1 2 3 4 5 6; do
    printf '{"id":"j%d","app":"BlueBlog","scale":0.02}\n' "$i" >&3
  done
  inline_job inline-1 >&3
  echo '{"id":"bad-1"}' >&3
  # wait for the worker announcements, then SIGKILL one mid-batch
  for _ in $(seq 50); do
    grep -q "spawned" cluster.log && break
    sleep 0.2
  done
  pid=$(grep -m1 -oP "spawned \(pid \K[0-9]+" cluster.log)
  echo "killing worker pid $pid"
  kill -9 "$pid"
  for i in 7 8 9 10; do
    printf '{"id":"j%d","app":"BlueBlog","scale":0.02}\n' "$i" >&3
  done
  sleep 2
  # after the respawn backoff, the slot must serve again
  for i in 11 12; do
    printf '{"id":"j%d","app":"BlueBlog","scale":0.02}\n' "$i" >&3
  done
  exec 3>&-
  wait "$srv" || rc=$?
  SERVERS=()
  cat cluster.log
  [ "$rc" -eq 0 ] || fail "cluster exit $rc, expected a clean drain (0)"
  KILLED=$pid python3 - <<'EOF'
import os, re
from checks import ndjson, once, trace
by, health = once(ndjson("responses.ndjson"),
                  [f"j{i}" for i in range(1, 13)] + ["inline-1", "bad-1"],
                  health=1)
# the post-respawn jobs must have been analyzed, not crash-failed
for job in ["j11", "j12"]:
    assert by[job]["status"] == "completed", by[job]
assert by["bad-1"]["status"] == "rejected", by["bad-1"]
h = health[0]
assert h["worker_crashes"] >= 1, h
assert h["worker_respawns"] >= 1, h
assert h["clean_drain"] is True, h
crash_log = open("cluster.log").read()
exits = re.findall(r"worker \d+ \(pid (\d+)\) exited: (.*) \(\d+ job\(s\) in flight\)",
                   crash_log)
assert any(p == os.environ["KILLED"] and why != "drained" for p, why in exits), \
    f"no crash exit of the killed worker {os.environ['KILLED']}: {exits}"
assert "respawned (pid" in crash_log, "missing respawn diagnostic"
print(f"{len(by)} terminal responses; {h['worker_crashes']} crash(es), "
      f"{h['worker_respawns']} respawn(s), {h['jobs_rerouted']} rerouted")
events, _, pids = trace("cluster-trace.json", lanes=2)
print(f"{len(events)} events across {len(pids)} process lanes")
EOF
}

# The live admin channel of `taj serve --cluster 2`: a Prometheus scrape
# mid-batch, `taj top --once`, a SIGUSR1 flight dump without --trace, the
# NDJSON log, and exactly one answer per job over the job socket.
scenario_observability() {
  local srv sub rc=0
  # started directly, not under `timeout`, so that $! is the coordinator
  # and SIGUSR1/SIGTERM reach it
  "$BIN" serve --cluster 2 --workers 1 --seed 7 \
    --socket ./taj.sock --admin-socket ./admin.sock \
    --log ./taj.log --flight-recorder 128 --flight-dump ./taj-flight.json \
    2> serve.log &
  srv=$!
  SERVERS+=("$srv")
  wait_for_sockets serve.log taj.sock admin.sock

  # submit a batch and read exactly one line per job, the write side open
  python3 - <<'EOF' &
import json, socket
s = socket.socket(socket.AF_UNIX)
s.connect("./taj.sock")
for i in range(1, 7):
    s.sendall((json.dumps({"id": f"j{i}", "app": "BlueBlog", "scale": 0.02}) + "\n").encode())
buf, lines = b"", []
while len(lines) < 6:
    chunk = s.recv(65536)
    if not chunk:
        break
    buf += chunk
    *done, buf = buf.split(b"\n")
    lines += done
s.close()
with open("responses.ndjson", "wb") as out:
    out.write(b"\n".join(lines) + b"\n")
EOF
  sub=$!
  SERVERS+=("$sub")

  # scrape the admin socket mid-batch: command, half-close, read to EOF
  sleep 0.5
  python3 - <<'EOF'
import socket
s = socket.socket(socket.AF_UNIX)
s.connect("./admin.sock")
s.sendall(b"metrics\n")
s.shutdown(socket.SHUT_WR)
buf = b""
while chunk := s.recv(65536):
    buf += chunk
open("metrics.prom", "wb").write(buf)
text = buf.decode()
assert "# TYPE " in text, "no TYPE comments in exposition"
assert "taj_serve_" in text, "no taj_serve_* series"
assert text.endswith("# EOF\n"), f"missing exposition terminator: {text[-40:]!r}"
print(f"mid-batch scrape: {len(buf)} bytes of valid exposition")
EOF
  wait "$sub"
  # the cluster's one latency line is the merged, cluster-wide one
  "$BIN" top --once ./admin.sock > top.txt
  cat top.txt
  [ "$(grep -c '^latency' top.txt)" -eq 1 ] || fail "top: not one latency line"
  grep -q '^latency.*cluster-wide' top.txt || fail "top: latency not cluster-wide"
  positive_rate top.txt

  # force a flight dump from a live, healthy cluster
  kill -USR1 "$srv"
  for _ in $(seq 50); do
    [ -s taj-flight.json ] && break
    sleep 0.2
  done
  kill -TERM "$srv"
  wait "$srv" || rc=$?
  SERVERS=()
  cat serve.log
  [ "$rc" -eq 0 ] || fail "cluster exit $rc, expected a clean drain (0)"
  test -s taj-flight.json
  python3 - <<'EOF'
import re
from checks import ndjson, once, trace
by, _ = once(ndjson("responses.ndjson"), [f"j{i}" for i in range(1, 7)])
for a in by.values():
    assert a["status"] == "completed", a
print(f"{len(by)} terminal responses, all exactly once")
events, _, pids = trace("taj-flight.json", lane=1)
print(f"flight dump: {len(events)} events across lanes {sorted(pids)}")
lines = ndjson("taj.log")
assert lines, "structured log is empty"
for e in lines:
    for key in ("ts", "seq", "level", "event", "proc"):
        assert key in e, f"log line missing {key}: {e}"
    assert e["level"] in {"debug", "info", "warn", "error"}, e
procs = {e["proc"] for e in lines}
assert "coordinator" in procs, f"no coordinator lines: {sorted(procs)}"
# one line per event: a spawn line for each worker spawn top counted,
# and one terminal line for each job
spawns = sum(int(n) for n in re.findall(r"^  worker \d+ .* spawns (\d+)",
                                        open("top.txt").read(), re.M))
spawned = [e for e in lines if e["event"] == "diag.worker-spawned"]
assert spawns and len(spawned) == spawns, (spawns, spawned)
for e in spawned:
    assert "worker" in e and "pid" in e, e
terminal = [e["job"] for e in lines if e["event"] == "serve.terminal"]
assert sorted(terminal) == sorted(by), f"serve.terminal lines: {terminal}"
print(f"{len(lines)} NDJSON log lines from {sorted(procs)}")
EOF
}

# Type-qualifier triage: the pre-filter changes no scored report, and
# rung zero of the degradation ladder loses no planted true positive.
scenario_triage() {
  local app
  for app in Friki BlueBlog Webgoat; do
    "$BIN" score "$app" --scale 0.02 > "filtered-$app.txt"
    "$BIN" score "$app" --scale 0.02 --no-triage-filter > "unfiltered-$app.txt"
    cat "filtered-$app.txt"
  done
  python3 - <<'EOF'
from checks import rows
for app in ["Friki", "BlueBlog", "Webgoat"]:
    on, off = rows(f"filtered-{app}.txt"), rows(f"unfiltered-{app}.txt")
    assert set(on) == set(off), (app, sorted(on), sorted(off))
    for cfg, a in on.items():
        b = off[cfg]
        # columns: config issues TP FP FN accuracy time; all but the time
        assert a[:6] == b[:6], \
            f"{app}/{cfg}: the pre-filter changed the report: {a} vs {b}"
    print(f"{app}: {len(on)} configurations byte-identical modulo time")
EOF
  for app in Friki BlueBlog Webgoat; do
    "$BIN" score "$app" --scale 0.02 --rung --csv "rung-$app.csv"
    cat "rung-$app.csv"
  done
  python3 - <<'EOF'
import csv
for app in ["Friki", "BlueBlog", "Webgoat"]:
    rows = list(csv.DictReader(open(f"rung-{app}.csv")))
    assert rows, f"{app}: empty rung table"
    last = rows[-1]
    assert last["rung"] == "triage", f"{app}: ladder does not end at rung zero: {last}"
    assert last["completed"] == "true", f"{app}: rung zero did not complete: {last}"
    assert last["fn"] == "0", f"{app}: rung zero lost {last['fn']} true positive(s)"
    print(f"{app}: rung zero kept all TPs (tp={last['tp']}, fp={last['fp']})")
EOF
}

# `taj score --contexts` exits 1 when a planted {applied; required}
# sanitizer mismatch goes unreported.
scenario_contexts() {
  local app
  for app in CtxForum CtxGallery CtxLedger; do
    expect 0 "$BIN" score "$app" --scale 0.02 --contexts \
      --trace "$app-trace.jsonl" > "score-$app.txt"
    cat "score-$app.txt"
  done
}

# perfbench's deterministic work counts, traced at seed 7, against the
# pins in test/work_counts.json (at --seconds 1 they equal those of a
# full run). Wall times are not gated. Only a deliberate change edits the
# pins, and says why in CHANGES.md; a regenerated record never feeds them.
scenario_work_counts() {
  local w
  for w in table2_batch dense_refine; do
    python3 "$ROOT/perfbench/run.py" --workload "$w" --seed 7 --seconds 1 \
      --trace 1 | tail -n 1 > "counts-$w.json"
  done
  python3 - "$ROOT/test/work_counts.json" <<'EOF'
import json, sys
pinned = json.load(open(sys.argv[1]))
bad = []
for workload, counts in pinned.items():
    run = json.load(open(f"counts-{workload}.json"))
    if not run["correct"] or run["failed"] != 0:
        bad.append(f"{workload}: correct={run['correct']} failed={run['failed']}")
    for name, want in counts.items():
        got = run["metrics"][name]["value"]
        status = "ok" if got == want else "MOVED"
        print(f"{workload:14s} {name:24s} {got!r:>20} {status}")
        if got != want:
            bad.append(f"{workload} {name}: {got!r}, pinned {want!r}")
    for name in ("pointer.s", "sdg.s", "taint.s", "trace.op_s"):
        print(f"{workload:14s} {name:24s} {run['metrics'][name]['value']:20.4f} (not gated)")
if bad:
    sys.exit("work counts moved:\n" + "\n".join(bad))
EOF
}

# ---------------------------------------------------------------------
# Runner

scenarios=("$@")
[ $# -gt 0 ] || scenarios=("${DEFAULT[@]}")
for name in "${scenarios[@]}"; do
  declare -F "scenario_${name//-/_}" > /dev/null \
    || { echo "e2e: no scenario $name" >&2; exit 2; }
done
rm -rf "$WORK"
mkdir -p "$WORK"
write_checks
export PYTHONPATH="$WORK"
start=$SECONDS
for name in "${scenarios[@]}"; do
  echo "=== $name"
  mkdir "$WORK/$name"
  t0=$SECONDS
  (
    cd "$WORK/$name"
    trap stop_servers EXIT
    set -e
    "scenario_${name//-/_}"
  )
  if [ $? -ne 0 ]; then
    echo "e2e: FAILED in scenario $name" >&2
    exit 1
  fi
  echo "=== $name: ok ($((SECONDS - t0)) s)"
done
echo "e2e: ${#scenarios[@]} scenario(s) passed in $((SECONDS - start)) s"
