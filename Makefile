# Convenience entry points; everything is plain dune underneath.
#
#   make build       compile everything
#   make test        full test suite: includes the trace-export and bechamel
#                    smoke aliases and the fleet, serve and migrate checks
#                    (determinism, bounded heap, no scaling inversion, ring
#                    amortization, pre-copy trade-off, firmware rollback)
#   make doc         API docs via odoc, warnings-as-errors (skips if odoc absent)
#   make doc-strict  same, but odoc missing is an error (ODOC_REQUIRED=1)
#   make matrix      differential fault-injection matrix (nonzero exit on any
#                    silent corruption or harness error in the Fidelius column)
#   make fleet       fleet scaling benchmark: VMs/sec vs domain count
#                    (results/fleet.csv, results/fleet_trace.json, bench.json)
#   make fleet-scale scaling gate: d4 must beat d1 by >= 2.0x (nonzero exit
#                    otherwise; skips with a message on hosts under 4 cores)
#   make serve       traffic-serving benchmark over the batched PV datapath
#                    (ring throughput sync vs batched, serve sweep -> bench.json)
#   make migrate     fleet live-migration benchmark: pages sent vs downtime
#                    budget across fleet sizes (results/migrate.csv, bench.json)
#   make perf        re-measure the bechamel primitives and print the
#                    speedup against the recorded results/bench.json baseline
#   make perf-gate   regression gate over the pinned fast-path keys: any key
#                    slower than 2x its recorded bench.json baseline fails
#                    (best of two runs; PERF_GATE_SKIP=1 to skip)
#   make crypto-selftest  report the CPUID-selected AES/SHA backends, then
#                    run the test suite's aes-backend and golden groups:
#                    FIPS KATs, golden digests and tier = reference on
#                    every tier this CPU can run (nonzero exit on any
#                    mismatch)
#   make check       what CI runs: build + tests + crypto self-test + matrix
#                    + perf gate + docs

.PHONY: build test doc doc-strict matrix fleet fleet-scale serve migrate perf perf-gate crypto-selftest check clean

build:
	dune build @all

test:
	dune runtest

doc:
	sh tools/doc.sh

doc-strict:
	ODOC_REQUIRED=1 sh tools/doc.sh

matrix:
	dune exec bin/fidelius_sim.exe -- inject matrix

fleet:
	dune exec bench/main.exe -- fleet

fleet-scale:
	dune exec bench/main.exe -- fleet-scale

serve:
	dune exec bench/main.exe -- serve

migrate:
	dune exec bench/main.exe -- migrate

perf:
	dune exec bench/main.exe -- perf

perf-gate:
	dune exec bench/main.exe -- perf-gate

crypto-selftest:
	dune exec bin/fidelius_sim.exe -- cpu-features
	dune exec test/test_crypto.exe -- test '^(aes-backend|golden)$$'

check: build test crypto-selftest matrix perf-gate doc

clean:
	dune clean
