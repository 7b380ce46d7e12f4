#!/bin/sh
# Benchmark harness: runs the engine/detector micro-benchmarks, the
# end-to-end parallel suite, and the mapperd serving selftest, then renders
# the results as BENCH_engine.json and BENCH_serve.json (repo root). Commit
# the refreshed files alongside any change that claims a performance delta,
# so regressions show up in review as a diff.
#
# Usage:
#
#	scripts/bench.sh [count]
#	scripts/bench.sh check
#
# count is the -count passed to the end-to-end suite (default 3; the
# committed number is the minimum across repetitions, which is the standard
# way to suppress scheduler noise on a shared machine).
#
# "check" re-runs BenchmarkEngine, BenchmarkMultilevel, BenchmarkSparseMatrix,
# the serve-plane micros (BenchmarkIngestParse, BenchmarkRecovery) and the
# mapperd selftest and compares events/sec (and for the daemon,
# queries/sec) against the committed BENCH_engine.json / BENCH_serve.json:
# any case dropping below 75% of its committed throughput fails, so an
# accidental hot-path regression is caught by CI instead of by the next
# manual bench run.
#
# Every rendered file is stamped with the measuring host (CPU model + core
# count) and commit. Absolute throughput is only comparable on the same
# host: check compares ratios only when the committed host_id matches the
# current machine, and prints the comparisons it skipped otherwise, so a
# clone benched on different hardware reports "skipped" instead of a bogus
# regression (or a silent pass). Frozen baseline blocks carry their own
# host_id for the same reason — a baseline measured on an unrecorded host
# is documentation, not a gate.
set -eu

cd "$(dirname "$0")/.."
OUT="BENCH_engine.json"
SERVE_OUT="BENCH_serve.json"

host_id() {
	_model="$(awk -F': ' '/model name/ {print $2; exit}' /proc/cpuinfo 2>/dev/null || true)"
	echo "${_model:-unknown-cpu} x$(nproc 2>/dev/null || echo 1)"
}

commit_id() {
	_c="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
	git diff --quiet HEAD 2>/dev/null || _c="$_c-dirty"
	echo "$_c"
}

# The fixed fleet shape both modes run, so committed and current numbers
# are comparable: 256 connections over 16 tenants, 1000 events each.
serve_selftest() {
	go run ./cmd/mapperd -selftest -conns 256 -tenants 16 -threads 8 \
		-events 1000 -batch 50 -query-every 4 -seed 1
}

# serve_best runs the selftest N times and keeps the BENCH line with the
# best events/sec (best-of-N suppresses scheduler noise, as elsewhere).
serve_best() {
	_n="$1"
	_best=""
	_best_evs=0
	_i=0
	while [ "$_i" -lt "$_n" ]; do
		_line="$(serve_selftest | tee /dev/stderr | grep '^BENCH ')"
		_evs="$(echo "$_line" | sed -n 's/.*events_per_sec=\([0-9]*\).*/\1/p')"
		if [ "${_evs:-0}" -gt "$_best_evs" ]; then
			_best_evs="$_evs"
			_best="$_line"
		fi
		_i=$((_i + 1))
	done
	echo "$_best"
}

# committed_host_id FILE prints the top-level host_id of a committed
# result file ("" when the file predates host stamping).
committed_host_id() {
	sed -n 's/.*"host_id": "\(.*\)",*$/\1/p' "$1" | head -1
}

if [ "${1:-}" = "check" ]; then
	[ -f "$OUT" ] || { echo "bench check: no committed $OUT" >&2; exit 1; }
	HOST="$(host_id)"
	GATE=1
	COMMITTED_HOST="$(committed_host_id "$OUT")"
	if [ "$COMMITTED_HOST" != "$HOST" ]; then
		GATE=0
		echo "bench check: committed numbers measured on '${COMMITTED_HOST:-unrecorded host}'," >&2
		echo "bench check: current host is '$HOST' — comparisons are informational, gate skipped" >&2
	fi
	RAW="$(mktemp)"
	trap 'rm -f "$RAW"' EXIT
	echo "== bench check: engine/mapper/matrix/serve vs committed $OUT ==" >&2
	go test -run '^$' -bench BenchmarkEngine -benchtime 1x -count 3 \
		./internal/sim | tee "$RAW" >&2
	go test -run '^$' -bench BenchmarkMultilevel -benchtime 1x -count 3 \
		./internal/mapping | tee -a "$RAW" >&2
	go test -run '^$' -bench BenchmarkSparseMatrix -benchtime 0.5s -count 3 \
		./internal/comm | tee -a "$RAW" >&2
	# BenchmarkWALGroupCommit is deliberately absent: it is fsync-bound,
	# and fsync latency on shared infrastructure swings far more than the
	# 25% regression budget — it stays a full-mode (documentation) number.
	go test -run '^$' -bench 'BenchmarkIngestParse|BenchmarkRecovery' \
		-benchtime 1x -count 3 ./internal/serve | tee -a "$RAW" >&2
	# Pass 1 reads the committed live "benchmarks" section (the frozen
	# baselines nest under "frozen", so this key is unique); pass 2 keeps
	# each current case's best events/sec across -count repetitions.
	awk -v gate="$GATE" '
		FNR == NR {
			if ($0 ~ /"benchmarks": \[/) { live = 1; next }
			if (live && $0 ~ /^[[:space:]]*\]/) live = 0
			if (live && match($0, /"name": "Benchmark(Engine|Multilevel|SparseMatrix|IngestParse|Recovery)(\/[^"]*)?"/)) {
				name = substr($0, RSTART + 9, RLENGTH - 10)
				if (match($0, /"events_per_sec": [0-9.e+]+/))
					base[name] = substr($0, RSTART + 18, RLENGTH - 18) + 0
			}
			next
		}
		/^Benchmark(Engine|Multilevel|SparseMatrix|IngestParse|Recovery)[-\/ \t]/ {
			name = $1
			sub(/-[0-9]+$/, "", name)
			for (i = 2; i < NF; i++)
				if ($(i + 1) == "events/sec" && $i + 0 > cur[name] + 0)
					cur[name] = $i + 0
		}
		END {
			fail = 0
			for (name in base) {
				if (!(name in cur)) {
					printf "bench check: case %s missing from current run\n", name
					fail = 1
					continue
				}
				ratio = cur[name] / base[name]
				printf "%-40s %12.0f ev/s  committed %12.0f  (%.2fx)%s\n", \
					name, cur[name], base[name], ratio, (gate ? "" : "  [skipped: different host]")
				if (gate && ratio < 0.75) {
					printf "bench check FAILED: %s regressed to %.0f%% of committed throughput\n", \
						name, ratio * 100
					fail = 1
				}
			}
			if (fail) exit 1
			print (gate ? "bench check passed" : "bench check skipped (host mismatch); no gate applied")
		}' "$OUT" "$RAW" >&2

	[ -f "$SERVE_OUT" ] || { echo "bench check: no committed $SERVE_OUT" >&2; exit 1; }
	SERVE_GATE=1
	SERVE_HOST="$(committed_host_id "$SERVE_OUT")"
	if [ "$SERVE_HOST" != "$HOST" ]; then
		SERVE_GATE=0
		echo "bench check: committed $SERVE_OUT from '${SERVE_HOST:-unrecorded host}' — gate skipped" >&2
	fi
	echo "== bench check: mapperd serving vs committed $SERVE_OUT ==" >&2
	SERVE_LINE="$(serve_best 3)"
	echo "$SERVE_LINE" | awk -v committed="$(cat "$SERVE_OUT")" -v gate="$SERVE_GATE" '
		{
			for (i = 1; i <= NF; i++)
				if (split($i, kv, "=") == 2) cur[kv[1]] = kv[2] + 0
		}
		END {
			n = split(committed, lines, "\n")
			for (i = 1; i <= n; i++)
				for (k in cur)
					if (match(lines[i], "\"" k "\": [0-9.]+"))
						base[k] = substr(lines[i], RSTART + length(k) + 4, RLENGTH - length(k) - 4) + 0
			fail = 0
			for (k in base) {
				if (k == "conns" || k ~ /_us$/) continue # shape + latency: informational
				ratio = cur[k] / base[k]
				printf "%-18s %12.0f  committed %12.0f  (%.2fx)%s\n", k, cur[k], base[k], ratio, \
					(gate ? "" : "  [skipped: different host]")
				if (gate && ratio < 0.75) {
					printf "bench check FAILED: mapperd %s regressed to %.0f%% of committed throughput\n", \
						k, ratio * 100
					fail = 1
				}
			}
			if (fail) exit 1
			print (gate ? "serve bench check passed" : "serve bench check skipped (host mismatch)")
		}' >&2
	exit 0
fi

COUNT="${1:-3}"
RAW="$(mktemp)"
trap 'rm -f "$RAW"' EXIT

echo "== micro: engine + ready queue + trace compile + detectors + matrix ==" >&2
go test -run '^$' -bench 'BenchmarkEngine|BenchmarkReadyQueue|BenchmarkCompile|BenchmarkDetectors|BenchmarkSparseMatrix' \
	-benchtime 2s -benchmem ./internal/sim ./internal/trace ./internal/comm | tee -a "$RAW" >&2

echo "== micro: multilevel mapper ==" >&2
go test -run '^$' -bench BenchmarkMultilevel -benchtime 2x \
	-benchmem ./internal/mapping | tee -a "$RAW" >&2

echo "== micro: serve fast path (wire parse, WAL group commit, recovery) ==" >&2
go test -run '^$' -bench 'BenchmarkIngestParse|BenchmarkWALGroupCommit|BenchmarkRecovery' \
	-benchtime 2x -benchmem ./internal/serve | tee -a "$RAW" >&2

echo "== end-to-end: parallel suite (count=$COUNT) ==" >&2
go test . -run '^$' -bench BenchmarkParallelSuite -benchtime 1x -count "$COUNT" \
	| tee -a "$RAW" >&2

# Render one JSON object per benchmark line. Repeated names (from -count)
# keep the minimum ns/op, the maximum events/sec, and the minimum
# bytes/allocs per op. The frozen baselines are the "before" of each
# optimization PR, kept verbatim with the host they were measured on, so
# the speedups stay reviewable next to the current numbers (and so "check"
# mode can rely on the top-level "benchmarks" key being unique). Baselines
# from before host stamping carry "unrecorded"; comparisons against them
# are qualitative only.
awk -v host="$(go env GOOS)/$(go env GOARCH)" -v hostid="$(host_id)" -v commit="$(commit_id)" '
	/^Benchmark/ {
		name = $1
		sub(/-[0-9]+$/, "", name)
		ns = ""; evs = ""; bpo = ""; apo = ""
		for (i = 2; i < NF; i++) {
			if ($(i + 1) == "ns/op") ns = $i
			if ($(i + 1) == "events/sec") evs = $i
			if ($(i + 1) == "B/op") bpo = $i
			if ($(i + 1) == "allocs/op") apo = $i
		}
		if (ns == "") next
		if (!(name in best_ns) || ns + 0 < best_ns[name] + 0) best_ns[name] = ns
		if (evs != "" && (!(name in best_evs) || evs + 0 > best_evs[name] + 0)) best_evs[name] = evs
		if (bpo != "" && (!(name in best_bpo) || bpo + 0 < best_bpo[name] + 0)) best_bpo[name] = bpo
		if (apo != "" && (!(name in best_apo) || apo + 0 < best_apo[name] + 0)) best_apo[name] = apo
		if (!(name in seen)) { order[++n] = name; seen[name] = 1 }
	}
	END {
		printf "{\n  \"host\": \"%s\",\n", host
		printf "  \"host_id\": \"%s\",\n", hostid
		printf "  \"commit\": \"%s\",\n", commit
		printf "  \"baselines\": [\n"
		printf "    {\n"
		printf "      \"engine\": \"pre-overhaul (linear pick, map-backed hot state), commit f16175d\",\n"
		printf "      \"host_id\": \"unrecorded\",\n"
		printf "      \"frozen\": [\n"
		printf "        {\"name\": \"BenchmarkParallelSuite/workers1\", \"ns_per_op\": 801345119},\n"
		printf "        {\"name\": \"BenchmarkParallelSuite/workers2\", \"ns_per_op\": 710678623},\n"
		printf "        {\"name\": \"BenchmarkParallelSuite/workers4\", \"ns_per_op\": 774978408},\n"
		printf "        {\"name\": \"BenchmarkParallelSuite/workers8\", \"ns_per_op\": 800366018}\n"
		printf "      ]\n    },\n"
		printf "    {\n"
		printf "      \"engine\": \"pre-presence-index (pairwise HM scan on the host), commit 089ac8f\",\n"
		printf "      \"host_id\": \"unrecorded\",\n"
		printf "      \"frozen\": [\n"
		printf "        {\"name\": \"BenchmarkEngine/null\", \"ns_per_op\": 35141989, \"events_per_sec\": 6993351},\n"
		printf "        {\"name\": \"BenchmarkEngine/SM\", \"ns_per_op\": 37496853, \"events_per_sec\": 6554157},\n"
		printf "        {\"name\": \"BenchmarkEngine/HM\", \"ns_per_op\": 1051462224, \"events_per_sec\": 233732},\n"
		printf "        {\"name\": \"BenchmarkEngine/oracle\", \"ns_per_op\": 40159467, \"events_per_sec\": 6119609},\n"
		printf "        {\"name\": \"BenchmarkDetectors/HM/scan-full\", \"ns_per_op\": 8945, \"events_per_sec\": 111793},\n"
		printf "        {\"name\": \"BenchmarkDetectors/HM/scan-sparse\", \"ns_per_op\": 776.8, \"events_per_sec\": 1287321}\n"
		printf "      ]\n    },\n"
		printf "    {\n"
		printf "      \"engine\": \"pre-compile-and-replay (goroutine token passing, per-event apply), commit b792496\",\n"
		printf "      \"host_id\": \"Intel(R) Xeon(R) Processor @ 2.10GHz x1\",\n"
		printf "      \"note\": \"best of 3, interleaved with the current numbers on the same machine\",\n"
		printf "      \"frozen\": [\n"
		printf "        {\"name\": \"BenchmarkEngine/null\", \"ns_per_op\": 37849446, \"events_per_sec\": 6493109, \"bytes_per_op\": 4022553, \"allocs_per_op\": 385},\n"
		printf "        {\"name\": \"BenchmarkEngine/SM\", \"ns_per_op\": 39061100, \"events_per_sec\": 6291693, \"bytes_per_op\": 4030328, \"allocs_per_op\": 421},\n"
		printf "        {\"name\": \"BenchmarkEngine/HM\", \"ns_per_op\": 67223222, \"events_per_sec\": 3655887, \"bytes_per_op\": 4030296, \"allocs_per_op\": 421},\n"
		printf "        {\"name\": \"BenchmarkEngine/oracle\", \"ns_per_op\": 41759291, \"events_per_sec\": 5885168, \"bytes_per_op\": 4060088, \"allocs_per_op\": 391}\n"
		printf "      ]\n    }\n"
		printf "  ],\n"
		printf "  \"benchmarks\": [\n"
		for (i = 1; i <= n; i++) {
			name = order[i]
			printf "    {\"name\": \"%s\", \"ns_per_op\": %s", name, best_ns[name]
			if (name in best_evs) printf ", \"events_per_sec\": %s", best_evs[name]
			if (name in best_bpo) printf ", \"bytes_per_op\": %s", best_bpo[name]
			if (name in best_apo) printf ", \"allocs_per_op\": %s", best_apo[name]
			printf "}%s\n", (i < n ? "," : "")
		}
		printf "  ]\n}\n"
	}' "$RAW" > "$OUT"

echo "wrote $OUT" >&2

echo "== serving: mapperd selftest (best of $COUNT) ==" >&2
serve_best "$COUNT" | awk -v host="$(go env GOOS)/$(go env GOARCH)" -v hostid="$(host_id)" -v commit="$(commit_id)" '
	{
		printf "{\n  \"host\": \"%s\",\n", host
		printf "  \"host_id\": \"%s\",\n", hostid
		printf "  \"commit\": \"%s\",\n", commit
		printf "  \"fleet\": {\"tenants\": 16, \"threads\": 8, \"events_per_conn\": 1000, \"batch\": 50, \"query_every\": 4},\n"
		printf "  \"baselines\": [\n"
		printf "    {\n"
		printf "      \"serve\": \"pre-fast-path (allocating scanner parse, outbox writer goroutine, strict request/response client), commit b792496\",\n"
		printf "      \"host_id\": \"Intel(R) Xeon(R) Processor @ 2.10GHz x1\",\n"
		printf "      \"note\": \"best of 3, interleaved with the current numbers on the same machine\",\n"
		printf "      \"frozen\": {\"conns\": 256, \"events_per_sec\": 1323328, \"queries_per_sec\": 6617, \"p50_us\": 5382, \"p99_us\": 9559}\n"
		printf "    }\n"
		printf "  ],\n"
		printf "  \"serving\": {"
		out = ""
		for (i = 2; i <= NF; i++)
			if (split($i, kv, "=") == 2)
				out = out sprintf("%s\"%s\": %s", (out == "" ? "" : ", "), kv[1], kv[2])
		printf "%s}\n}\n", out
	}' > "$SERVE_OUT"

echo "wrote $SERVE_OUT" >&2
