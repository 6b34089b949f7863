#!/bin/sh
# check.sh — the repo's full verification gate: formatting, vet, build, tests.
# Run from the repository root (or anywhere inside it).
set -eu

cd "$(dirname "$0")/.."

unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt: the following files need formatting:" >&2
	echo "$unformatted" >&2
	exit 1
fi

# The store seam is load-bearing: core must speak only store.Engine, never
# a concrete backend package. A direct import would silently reintroduce
# the per-backend dispatch branches this layering removed.
if grep -rn '"xmlac/internal/sqldb"\|"xmlac/internal/nativedb"' internal/core/*.go; then
	echo "check.sh: internal/core must not import sqldb or nativedb (use store.Engine)" >&2
	exit 1
fi

# The rewriting layer (planner, rewrite request path and scope sets,
# policy rewriter) must never touch sign internals — the CAM package,
# annotation-query construction, sign application or the reannotator.
# Only the signs path (requestSigns, the query cache, the snapshot that
# holds the CAM) may.
if grep -n 'xmlac/internal/cam\|BuildAnnotationQuery\|AnnotationQuery\|ApplySigns\|xmltree\.Sign\|Reannotat\|\.Sign\b' \
	internal/core/rewriter.go internal/core/planner.go internal/xpath/rewrite.go; then
	echo "check.sh: the rewriting enforcement layer must not reference sign internals" >&2
	exit 1
fi

go vet ./...
go build ./...
go test ./...
go test -race ./...

# Cross-mode golden equivalence: the rewriting enforcer must answer
# byte-identically to the materialized signs pipeline on every backend,
# every Table 2 semantics and both fixtures — the refactor's safety net.
# `go test ./...` above runs it; this standalone form is what CI's
# blocking cross-mode job calls.
go test -run 'TestCrossModeEquivalence|TestRecursiveSchemaOnlyRewrite|TestStaticDenyFastPath' ./internal/core

# Derived-state snapshot: concurrent readers of one store version must
# share a single CAM or scope-set build and agree with the Table 2 oracle.
# Repeated under -race because the build race is timing-dependent.
go test -race -count=10 -run TestSnapshot ./internal/core

# Differential fuzzing: replay generated statement scripts against the row,
# column and vectorized engines and require identical results and errors;
# the mode fuzzer does the same one layer up across enforcement modes.
# `go test ./...` above runs the full versions; this keeps the -short form
# exercised so CI can call it standalone.
go test -short -run 'TestDifferentialEngines|TestModeDifferentialFuzz' ./internal/sqldb

# Smoke the benchmark harness itself (tiny -short documents, one iteration):
# a broken bench is otherwise only caught when scripts/bench.sh runs.
go test -short -bench 'BenchmarkFig10_Request(MonetSQL|Postgres|MonetCol|Rewrite)' -benchtime 1x -run '^$' .
go test -short -bench 'BenchmarkHotWrite_SignsVsRewrite' -benchtime 1x -run '^$' .

# Smoke the multi-user cohort scale benchmarks (-short population: 200
# users over 10 distinct policies; the million-subject register skips).
go test -short -bench 'BenchmarkMultiUser(Rebuild|Memory|Request)' -benchtime 1x -run '^$' .

# Quantile sanity: the bucket-interpolation math behind the /metrics and
# /dashboard p50/p95/p99 figures.
go test -short -run TestHistogramQuantile ./internal/obs

# Smoke the ops endpoint: build the CLI, serve the bundled hospital system
# on a fixed port, and hit /healthz and /metrics with curl.
if command -v curl >/dev/null 2>&1; then
	serve_port=18765
	serve_bin=$(mktemp -d)/xmlac
	go build -o "$serve_bin" ./cmd/xmlac
	"$serve_bin" -serve 127.0.0.1:$serve_port -qcache -users demo >/dev/null 2>&1 &
	serve_pid=$!
	trap 'kill $serve_pid 2>/dev/null || true' EXIT
	ok=""
	for _ in $(seq 1 50); do
		if curl -sf "http://127.0.0.1:$serve_port/healthz" | grep -q '"status": "ok"'; then
			ok=1
			break
		fi
		sleep 0.1
	done
	[ -n "$ok" ] || { echo "check.sh: /healthz never became ready" >&2; exit 1; }
	curl -sf "http://127.0.0.1:$serve_port/metrics" | grep -q 'core_qcache' \
		|| { echo "check.sh: /metrics missing expected counters" >&2; exit 1; }
	curl -sf "http://127.0.0.1:$serve_port/dashboard" | grep -q 'Request latency' \
		|| { echo "check.sh: /dashboard did not render" >&2; exit 1; }
	curl -sf "http://127.0.0.1:$serve_port/multiuser" | grep -q '"cohorts": 3' \
		|| { echo "check.sh: /multiuser missing the demo cohorts" >&2; exit 1; }
	curl -sf "http://127.0.0.1:$serve_port/alerts" | grep -q '"enabled": true' \
		|| { echo "check.sh: /alerts missing the default SLO objectives" >&2; exit 1; }
	curl -sf "http://127.0.0.1:$serve_port/coverage" | grep -q '"rollup"' \
		|| { echo "check.sh: /coverage missing the cohort rollup" >&2; exit 1; }
	curl -sf "http://127.0.0.1:$serve_port/forensics" | grep -q '"windows"' \
		|| { echo "check.sh: /forensics did not report windows" >&2; exit 1; }
	curl -sf "http://127.0.0.1:$serve_port/plan" | grep -q '"active_mode": "signs"' \
		|| { echo "check.sh: /plan missing the active enforcement mode" >&2; exit 1; }
	curl -sf "http://127.0.0.1:$serve_port/request?q=//name&enforce=rewrite" | grep -q '"outcome"' \
		|| { echo "check.sh: /request?enforce=rewrite did not answer" >&2; exit 1; }
	# The SSE stream opens with a hello frame; grab the first frame only.
	frame=$(curl -sN --max-time 2 "http://127.0.0.1:$serve_port/stream" | head -c 300 || true)
	echo "$frame" | grep -q 'event: hello' \
		|| { echo "check.sh: /stream did not emit a hello frame" >&2; exit 1; }
	kill $serve_pid 2>/dev/null || true
	wait $serve_pid 2>/dev/null || true
	trap - EXIT
else
	echo "check.sh: curl not found, skipping serve smoke" >&2
fi

echo "check.sh: all checks passed"
