#!/usr/bin/env bash
# graphd smoke test: build the daemon, start it with both listeners, ingest
# 10k edges over HTTP and 1k more over the binary wire protocol, run one of
# each query on each protocol and assert the answers are identical, SIGTERM
# it, and verify the clean shutdown left a flat-format snapshot that a
# second daemon recovers byte-equivalently (same edge count, same answers
# on both protocols). Along the way it asserts the readiness model:
# /readyz gates startup, /debug/slo serves valid JSON on a fresh daemon,
# the SIGTERM drain flips /readyz to 503 before the listener closes
# (drain-grace), and the recovered daemon reports ready again.
#
# A second phase runs the cluster scenario: three shard graphds behind a
# graphctl coordinator, ingest routed through the coordinator, graphctl's
# traceparent echo and /query/batch through graphd's front end, then kill
# one shard and assert the degraded-mode contract — coordinator /readyz
# flips to 503 naming the dead shard, cached global reads and point
# queries on surviving shards still answer, queries owned by the dead
# shard fail, and a restart from the victim's flat snapshot rejoins the
# cluster and restores full service.
# Run from the repo root: ./scripts/graphd_smoke.sh
set -euo pipefail

ADDR=127.0.0.1:18090
WIRE_ADDR=127.0.0.1:18091
URL="http://$ADDR"
WORK=$(mktemp -d)
SNAP="$WORK/graph.snap"
LOG="$WORK/graphd.log"
PID=""

CPID=""
SPIDS=()

cleanup() {
  [ -n "$PID" ] && kill "$PID" 2>/dev/null || true
  [ -n "$CPID" ] && kill "$CPID" 2>/dev/null || true
  for p in ${SPIDS[@]+"${SPIDS[@]}"}; do kill "$p" 2>/dev/null || true; done
  rm -rf "$WORK"
}
trap cleanup EXIT

die() { echo "graphd_smoke: FAIL: $*" >&2; [ -f "$LOG" ] && tail -20 "$LOG" >&2; exit 1; }

# Readiness (not liveness) gates traffic: wait for /readyz 200, the same
# signal a load balancer would use.
wait_ready() {
  for _ in $(seq 1 100); do
    curl -fsS "$URL/readyz" >/dev/null 2>&1 && return 0
    sleep 0.1
  done
  die "daemon never became ready"
}

# One batch of 1000 updates as a JSON array; vertex ids derived from the
# batch index so all 10k edges are distinct.
batch_json() {
  awk -v b="$1" 'BEGIN{
    printf "[";
    for (i = 0; i < 1000; i++) {
      if (i) printf ",";
      e = b*1000 + i;
      printf "{\"src\":%d,\"dst\":%d}", e % 4096, (e*7 + 1) % 4096;
    }
    printf "]";
  }'
}

# Normalize JSON for cross-protocol comparison: key order is the only
# permitted difference between an HTTP response and wirecli's re-encoding
# of the binary answer.
norm_json() { python3 -c 'import json,sys; print(json.dumps(json.load(sys.stdin), sort_keys=True))'; }

# Assert one query answers identically over HTTP and the wire protocol.
same_answer() { # $1 = label, $2 = HTTP path, $3... = wirecli args
  local label="$1" path="$2"; shift 2
  local http wire
  http=$(curl -fsS "$URL$path" | norm_json) || die "$label: HTTP query failed"
  wire=$("$WORK/wirecli" -addr "$WIRE_ADDR" "$@" | norm_json) || die "$label: wire query failed"
  [ "$http" = "$wire" ] || die "$label: protocol answers differ
  http: $http
  wire: $wire"
}

echo "graphd_smoke: building"
go build -o "$WORK/graphd" ./cmd/graphd
go build -o "$WORK/wirecli" ./cmd/wirecli
go build -o "$WORK/graphctl" ./cmd/graphctl

echo "graphd_smoke: starting daemon"
"$WORK/graphd" -listen "$ADDR" -listen-wire "$WIRE_ADDR" \
  -vertices 4096 -snapshot "$SNAP" \
  -snapshot-interval 0 -queue 65536 \
  -slo "component,p99=1s" -drain-grace 2s >"$LOG" 2>&1 &
PID=$!
wait_ready

echo "graphd_smoke: health model"
# Liveness and readiness are distinct endpoints, both healthy at startup.
curl -fsS "$URL/healthz" >/dev/null || die "/healthz on fresh daemon"
readyz=$(curl -fsS "$URL/readyz")
echo "$readyz" | grep -q '"ready":true' || die "/readyz not ready on fresh daemon: $readyz"
echo "$readyz" | grep -q '"ingest-queue"' || die "/readyz missing ingest-queue check: $readyz"
# /debug/slo must serve valid JSON on a fresh daemon (objective configured,
# no traffic yet → enabled, worst ok).
slo=$(curl -fsS "$URL/debug/slo")
echo "$slo" | python3 -m json.tool >/dev/null || die "/debug/slo is not valid JSON: $slo"
echo "$slo" | grep -q '"enabled": *true' || die "/debug/slo not enabled with -slo set: $slo"
echo "$slo" | grep -q '"worst": *"ok"' || die "fresh daemon SLO worst != ok: $slo"
# /debug/profiles always serves a valid index (disabled here).
curl -fsS "$URL/debug/profiles" | python3 -m json.tool >/dev/null || die "/debug/profiles invalid JSON"

echo "graphd_smoke: ingesting 10k edges"
for b in $(seq 0 9); do
  code=$(batch_json "$b" | curl -s -o /dev/null -w '%{http_code}' \
    -X POST -H 'Content-Type: application/json' --data-binary @- "$URL/ingest")
  [ "$code" = 202 ] || die "ingest batch $b returned HTTP $code"
done

# Ingest is async; poll /stats until everything acknowledged has applied.
for _ in $(seq 1 100); do
  applied=$(curl -fsS "$URL/stats" | sed -n 's/.*"applied":\([0-9]*\).*/\1/p')
  [ "$applied" = 10000 ] && break
  sleep 0.1
done
[ "$applied" = 10000 ] || die "only $applied of 10000 updates applied"

echo "graphd_smoke: ingesting 1k more edges over the wire protocol"
accepted=$(batch_json 10 | "$WORK/wirecli" -addr "$WIRE_ADDR" ingest \
  | sed -n 's/.*"accepted":\([0-9]*\).*/\1/p')
[ "$accepted" = 1000 ] || die "wire ingest accepted $accepted of 1000 updates"
for _ in $(seq 1 100); do
  applied=$(curl -fsS "$URL/stats" | sed -n 's/.*"applied":\([0-9]*\).*/\1/p')
  [ "$applied" = 11000 ] && break
  sleep 0.1
done
[ "$applied" = 11000 ] || die "only $applied of 11000 updates applied after wire ingest"

echo "graphd_smoke: querying"
# Request lifecycle tracing: a W3C traceparent header must be echoed back
# with the same trace ID (the parent-id becomes the server's root span).
TRACEID=4bf92f3577b34da6a3ce929d0e0e4736
sent="00-$TRACEID-00f067aa0ba902b7-01"
echoed=$(curl -fsS -D - -o /dev/null -H "traceparent: $sent" "$URL/query/component?v=2" \
  | tr -d '\r' | sed -n 's/^[Tt]raceparent: //p')
case "$echoed" in
  00-$TRACEID-*) ;;
  *) die "traceparent not echoed: sent $sent, got '$echoed'" ;;
esac
[ "$echoed" != "$sent" ] || die "traceparent echoed verbatim; parent-id should be the server root span"
curl -fsS "$URL/debug/trace/$TRACEID" | grep -q '"server.component"' || die "/debug/trace/{id} missing request tree"
curl -fsS "$URL/query/topdegree?k=3" | grep -q '"results"' || die "topdegree query"
curl -fsS "$URL/query/khop?v=1&k=2" | grep -q '"count"' || die "khop query"
curl -fsS "$URL/query/jaccard?u=1" | grep -q '"results"' || die "jaccard query"
curl -fsS "$URL/query/component?v=1" | grep -q '"component"' || die "component query"
curl -fsS "$URL/query/pagerank?v=1&timeout=30s" | grep -q '"rank"' || die "pagerank query"
# Fetch /metrics once; grep -q on a live pipe can close it before curl is
# done writing, which pipefail turns into a spurious failure.
metrics=$(curl -fsS "$URL/metrics")
echo "$metrics" | grep -q 'server_ingest_enqueued_total' || die "server metrics missing"
echo "$metrics" | grep -q 'server_stage_seconds_count{endpoint="component",stage="kernel"}' \
  || die "server_stage_seconds{endpoint,stage} missing from /metrics"
echo "$metrics" | grep -q 'server_snapshot_age_seconds' || die "snapshot age gauge missing"
edges=$(curl -fsS "$URL/stats" | sed -n 's/.*"edges":\([0-9]*\).*/\1/p')
[ -n "$edges" ] && [ "$edges" -gt 0 ] || die "stats reports no edges"

echo "graphd_smoke: protocol equivalence (HTTP vs wire)"
"$WORK/wirecli" -addr "$WIRE_ADDR" ping >/dev/null || die "wire ping"
same_answer component "/query/component?v=1" component 1
same_answer topdegree "/query/topdegree?k=3" topdegree 3
same_answer khop "/query/khop?v=1&k=2" khop 1 2
same_answer jaccard "/query/jaccard?u=1" jaccard 1
same_answer pagerank "/query/pagerank?v=1" pagerank 1
wire_edges=$("$WORK/wirecli" -addr "$WIRE_ADDR" stats | sed -n 's/.*"edges":\([0-9]*\).*/\1/p')
[ "$wire_edges" = "$edges" ] || die "wire stats reports $wire_edges edges, HTTP $edges"

echo "graphd_smoke: SIGTERM drain"
kill -TERM "$PID"
# During the drain-grace window the listener is still up: /readyz must
# report 503 (balancer drain signal) while /healthz stays 200 (no restart).
drain_seen=""
for _ in $(seq 1 20); do
  code=$(curl -s -o /dev/null -w '%{http_code}' "$URL/readyz" 2>/dev/null) || break
  if [ "$code" = 503 ]; then drain_seen=1; break; fi
  sleep 0.1
done
[ -n "$drain_seen" ] || die "/readyz never reported 503 during the drain-grace window"
live=$(curl -s -o /dev/null -w '%{http_code}' "$URL/healthz" 2>/dev/null || true)
[ "$live" = 200 ] || die "/healthz = $live during drain, want 200 (liveness)"
wait "$PID" || die "daemon exited nonzero after SIGTERM"
PID=""
[ -s "$SNAP" ] || die "no snapshot written on shutdown"
# The drain persists the flat CSR format: magic "GSNF" in the first 4 bytes.
[ "$(head -c4 "$SNAP")" = "GSNF" ] || die "snapshot is not flat-format (magic $(head -c4 "$SNAP"))"

echo "graphd_smoke: recovery from flat snapshot"
"$WORK/graphd" -listen "$ADDR" -listen-wire "$WIRE_ADDR" \
  -vertices 4096 -snapshot "$SNAP" \
  -snapshot-interval 0 >>"$LOG" 2>&1 &
PID=$!
wait_ready
edges2=$(curl -fsS "$URL/stats" | sed -n 's/.*"edges":\([0-9]*\).*/\1/p')
[ "$edges2" = "$edges" ] || die "recovered $edges2 edges, expected $edges"
curl -fsS "$URL/stats" | grep -q '"recovered":true' || die "daemon did not report recovery"
# Recovery restores readiness: /readyz answers 200 again.
code=$(curl -s -o /dev/null -w '%{http_code}' "$URL/readyz")
[ "$code" = 200 ] || die "/readyz = $code after recovery restart, want 200"
# Both protocols serve the recovered graph with identical answers.
same_answer component-recovered "/query/component?v=2" component 2
same_answer topdegree-recovered "/query/topdegree?k=3" topdegree 3
kill -TERM "$PID"
wait "$PID" || die "recovered daemon exited nonzero after SIGTERM"
PID=""

echo "graphd_smoke: OK ($edges edges survived the restart)"

# ---------------------------------------------------------------------------
# Cluster phase: 3 shards + coordinator, kill-one-shard, recover, rejoin.
# ---------------------------------------------------------------------------

CURL="http://127.0.0.1:18095"   # coordinator HTTP
VSNAP="$WORK/shard1.snap"       # victim's flat snapshot
VICTIM=1

# The partition function is a pure function of (vertex, shard count): the
# 64-bit murmur3 finalizer mod shards, mirrored here so the script can pick
# a vertex owned by a specific shard without asking the cluster.
owned_vertex() { # $1 = shard index (3 shards, 4096 vertices)
  python3 -c '
import sys
def owner(v, s):
    x = v & 0xffffffff
    x ^= x >> 33
    x = (x * 0xff51afd7ed558ccd) & 0xffffffffffffffff
    x ^= x >> 33
    x = (x * 0xc4ceb9fe1a85ec53) & 0xffffffffffffffff
    x ^= x >> 33
    return x % s
print(next(v for v in range(4096) if owner(v, 3) == int(sys.argv[1])))
' "$1"
}

# Per-shard applied-edit expectation for the 2000-edit coordinator stream:
# an edit is routed to owner(src) and owner(dst) (once if they coincide),
# exactly the coordinator's fan-out rule.
routed_count() { # $1 = shard index
  python3 -c '
import sys
def owner(v, s):
    x = v & 0xffffffff
    x ^= x >> 33
    x = (x * 0xff51afd7ed558ccd) & 0xffffffffffffffff
    x ^= x >> 33
    x = (x * 0xc4ceb9fe1a85ec53) & 0xffffffffffffffff
    x ^= x >> 33
    return x % s
shard = int(sys.argv[1])
n = 0
for e in range(2000):
    src, dst = e % 4096, (e * 7 + 1) % 4096
    if owner(src, 3) == shard or owner(dst, 3) == shard:
        n += 1
print(n)
' "$1"
}

start_shard() { # $1 = index; victim gets a snapshot path for the recovery leg
  local i="$1" snap_args=()
  [ "$i" = "$VICTIM" ] && snap_args=(-snapshot "$VSNAP" -snapshot-interval 0)
  "$WORK/graphd" -listen "127.0.0.1:1818$i" -listen-wire "127.0.0.1:1819$i" \
    -vertices 4096 -shard-index "$i" -shard-count 3 -queue 65536 \
    ${snap_args[@]+"${snap_args[@]}"} >"$WORK/shard$i.log" 2>&1 &
  SPIDS[$i]=$!
}

echo "graphd_smoke: starting 3-shard cluster"
for i in 0 1 2; do start_shard "$i"; done
for i in 0 1 2; do
  for _ in $(seq 1 100); do
    curl -fsS "http://127.0.0.1:1818$i/readyz" >/dev/null 2>&1 && break
    sleep 0.1
  done
  curl -fsS "http://127.0.0.1:1818$i/readyz" >/dev/null || die "shard $i never became ready"
  grep -q "shard $i/3" "$WORK/shard$i.log" || die "shard $i did not announce its partition"
done

"$WORK/graphctl" -listen 127.0.0.1:18095 \
  -shards 127.0.0.1:18190,127.0.0.1:18191,127.0.0.1:18192 \
  -shard-http 127.0.0.1:18180,127.0.0.1:18181,127.0.0.1:18182 \
  -vertices 4096 -poll-interval 200ms >"$WORK/graphctl.log" 2>&1 &
CPID=$!
for _ in $(seq 1 100); do
  curl -fsS "$CURL/readyz" >/dev/null 2>&1 && break
  sleep 0.1
done
curl -fsS "$CURL/readyz" | grep -q '"ready":true' \
  || die "coordinator never became ready: $(curl -s "$CURL/readyz")"
curl -fsS "$CURL/stats" | grep -q '"shards_ready":3' || die "coordinator does not see 3 ready shards"

echo "graphd_smoke: cluster ingest through the coordinator"
for b in 0 1; do
  code=$(batch_json "$b" | curl -s -o /dev/null -w '%{http_code}' \
    -X POST -H 'Content-Type: application/json' --data-binary @- "$CURL/ingest")
  [ "$code" = 202 ] || die "cluster ingest batch $b returned HTTP $code"
done
# Ingest is async per shard; poll each shard's own /stats until its routed
# share (owner(src) ∪ owner(dst) of every edit) has applied.
for i in 0 1 2; do
  want=$(routed_count "$i")
  for _ in $(seq 1 100); do
    applied=$(curl -fsS "http://127.0.0.1:1818$i/stats" | sed -n 's/.*"applied":\([0-9]*\).*/\1/p')
    [ "$applied" = "$want" ] && break
    sleep 0.1
  done
  [ "$applied" = "$want" ] || die "shard $i applied $applied of $want routed edits"
done

echo "graphd_smoke: cluster queries (all shards up)"
LIVE_V=$(owned_vertex 0)
DEAD_V=$(owned_vertex "$VICTIM")
# The component query also primes the coordinator's WCC cache — the
# degraded phase below asserts that cached global reads survive a shard loss.
comp_before=$(curl -fsS "$CURL/query/component?v=$DEAD_V") || die "cluster component query"
echo "$comp_before" | grep -q '"component"' || die "cluster component malformed: $comp_before"
curl -fsS "$CURL/query/topdegree?k=3" | grep -q '"results"' || die "cluster topdegree query"
curl -fsS "$CURL/query/khop?v=$LIVE_V&k=1" | grep -q '"count"' || die "cluster khop query"
curl -fsS "$CURL/query/pagerank?v=$LIVE_V&timeout=30s" | grep -q '"rank"' || die "cluster pagerank query"
cmetrics=$(curl -fsS "$CURL/metrics")
echo "$cmetrics" | grep -q 'cluster_shards_ready' || die "cluster_shards_ready gauge missing"
echo "$cmetrics" | grep -q 'cluster_supersteps_total' || die "cluster_supersteps_total missing"
echo "$cmetrics" | grep -q 'server_stage_seconds_count{endpoint="khop",stage="cluster"}' \
  || die "graphctl's front-end stage families missing from /metrics"

# graphctl serves through graphd's own front end: it joins a sent trace
# with its own root span as the parent-id, and answers /query/batch item
# for item as it answers the same queries one at a time.
echoed=$(curl -fsS -D - -o /dev/null -H "traceparent: $sent" "$CURL/query/khop?v=$LIVE_V&k=2" \
  | tr -d '\r' | sed -n 's/^[Tt]raceparent: //p')
case "$echoed" in
  00-$TRACEID-*) ;;
  *) die "graphctl did not echo traceparent: sent $sent, got '$echoed'" ;;
esac
[ "$echoed" != "$sent" ] || die "graphctl echoed traceparent verbatim; parent-id should be its root span"
curl -fsS "$CURL/debug/trace/$TRACEID" | grep -q '"server.khop"' || die "graphctl /debug/trace/{id} missing the request tree"
batch=$(curl -fsS -X POST -H 'Content-Type: application/json' \
  --data-binary "{\"queries\":[{\"op\":\"khop\",\"v\":$LIVE_V,\"k\":2},{\"op\":\"jaccard\",\"u\":$LIVE_V},{\"op\":\"topdegree\",\"k\":3}]}" \
  "$CURL/query/batch") || die "graphctl batch query"
python3 - "$batch" "$(curl -fsS "$CURL/query/khop?v=$LIVE_V&k=2")" \
  "$(curl -fsS "$CURL/query/jaccard?u=$LIVE_V")" "$(curl -fsS "$CURL/query/topdegree?k=3")" <<'EOF' \
  || die "graphctl batch items differ from its single-query answers: $batch"
import json, sys
batch, singles = json.loads(sys.argv[1]), [json.loads(a) for a in sys.argv[2:]]
assert batch["count"] == len(singles)
for item, want in zip(batch["results"], singles):
    assert item["status"] == 200 and item["result"] == want, (item, want)
EOF

echo "graphd_smoke: killing shard $VICTIM"
kill -TERM "${SPIDS[$VICTIM]}"
wait "${SPIDS[$VICTIM]}" || die "victim shard exited nonzero after SIGTERM"
SPIDS[$VICTIM]=""
[ -s "$VSNAP" ] || die "victim wrote no snapshot on shutdown"
[ "$(head -c4 "$VSNAP")" = "GSNF" ] || die "victim snapshot is not flat-format"

# Degraded mode: the coordinator's poll notices the dead shard, /readyz
# flips to 503 naming it, and /stats drops to 2 ready shards.
degraded=""
for _ in $(seq 1 50); do
  code=$(curl -s -o /dev/null -w '%{http_code}' "$CURL/readyz")
  if [ "$code" = 503 ]; then degraded=1; break; fi
  sleep 0.2
done
[ -n "$degraded" ] || die "coordinator /readyz never reported 503 with a shard down"
curl -s "$CURL/readyz" | grep -q "\"shard-$VICTIM\"" || die "degraded /readyz does not name shard-$VICTIM"
curl -fsS "$CURL/stats" | grep -q '"shards_ready":2' || die "stats does not show 2 ready shards"

echo "graphd_smoke: degraded reads"
# Cached global reads serve stale answers rather than failing outright.
comp_during=$(curl -fsS "$CURL/query/component?v=$DEAD_V") || die "stale component read failed with shard down"
[ "$(echo "$comp_before" | norm_json)" = "$(echo "$comp_during" | norm_json)" ] \
  || die "stale component read differs from the pre-kill answer"
# Point queries on surviving shards still answer...
curl -fsS "$CURL/query/khop?v=$LIVE_V&k=1" | grep -q '"count"' || die "surviving-shard khop failed with shard down"
# ...while traversals owned by the dead shard fail loudly, not wrongly.
code=$(curl -s -o /dev/null -w '%{http_code}' "$CURL/query/khop?v=$DEAD_V&k=1")
[ "$code" = 503 ] || [ "$code" = 504 ] || die "dead-shard khop returned HTTP $code, want 503/504"

echo "graphd_smoke: restarting shard $VICTIM from its flat snapshot"
start_shard "$VICTIM"
for _ in $(seq 1 100); do
  curl -fsS "http://127.0.0.1:1818$VICTIM/readyz" >/dev/null 2>&1 && break
  sleep 0.1
done
curl -fsS "http://127.0.0.1:1818$VICTIM/stats" | grep -q '"recovered":true' \
  || die "restarted shard did not recover from its snapshot"
# The coordinator redials on its next poll; readiness recovers cluster-wide.
rejoined=""
for _ in $(seq 1 50); do
  code=$(curl -s -o /dev/null -w '%{http_code}' "$CURL/readyz")
  if [ "$code" = 200 ]; then rejoined=1; break; fi
  sleep 0.2
done
[ -n "$rejoined" ] || die "coordinator never returned to ready after the shard rejoined"
curl -fsS "$CURL/stats" | grep -q '"shards_ready":3' || die "stats does not show 3 ready shards after rejoin"
# Full service restored: dead-owned traversals answer again.
curl -fsS "$CURL/query/khop?v=$DEAD_V&k=2" | grep -q '"count"' || die "dead-shard khop still failing after rejoin"

echo "graphd_smoke: cluster OK (shard $VICTIM killed, recovered, rejoined)"
