# Convenience targets; everything is plain cargo underneath.

.PHONY: all test benchmark-smoke compile-scale layer-rows src-lines experiments examples lint doc clean fuzz serve stats

all: test

test:
	cargo test --workspace

lint:
	cargo clippy --workspace --all-targets -- -D warnings
	cargo fmt --check 2>/dev/null || true

doc:
	cargo doc --workspace --no-deps

# The benchmark (benchmark/, a package outside this workspace) still
# builds against the crates, every workload answers correctly, the traced
# run's stage spans cover a request (its >=95% gate), and its own tests
# pass. ~1 min; what BENCHMARK.json's driver would trip over, caught here.
benchmark-smoke:
	bash benchmark/run.sh --workload all --seed 1 --smoke --trace 0
	bash benchmark/run.sh --workload all --seed 1 --smoke --trace 1
	cd benchmark && cargo test --offline

# No compile-time cliff (DESIGN §2.1): the optimizer decides ownership on
# sets, so `xdpc opt` must do to simple.xdp's loop at n = 2^20, and
# `fuse-loops` to a loop pair at n = 2^16, what they do at n = 64, in at
# most twice the time (min of 5 runs each). Wall clock lives here and not
# in `cargo test`, so a busy host cannot flake tier-1.
compile-scale:
	cargo build --release --quiet
	@set -e; dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; \
	simple() { printf 'real A[1:%d] distribute (BLOCK) onto 4\nreal B[1:%d] distribute (CYCLIC) onto 4\nreal T[0:3] distribute (BLOCK) onto 4 segment (1)\ndo i = 1, %d\n  iown(B[i]) : { B[i] -> }\n  iown(A[i]) : {\n    T[mypid] <- B[i]\n    await(T[mypid]) : { A[i] = A[i] + T[mypid] }\n  }\nenddo\n' $$1 $$1 $$1; }; \
	pair() { printf 'real A[1:%d] distribute (BLOCK) onto 4\nreal B[1:%d] distribute (BLOCK) onto 4\ndo i = 1, %d\n  iown(A[i]) : { A[i] = A[i] + 1.0 }\nenddo\ndo i = 1, %d\n  iown(B[i]) : { B[i] = B[i] + A[i] }\nenddo\n' $$1 $$1 $$1 $$1; }; \
	simple 64 > $$dir/simple_small.xdp; simple 1048576 > $$dir/simple_large.xdp; \
	pair 64 > $$dir/pair_small.xdp; pair 65536 > $$dir/pair_large.xdp; \
	best() { min=; for k in 1 2 3 4 5; do \
	    s=$$(date +%s%N); "$$@" > /dev/null 2> $$dir/said; e=$$(date +%s%N); \
	    us=$$(( (e - s) / 1000 )); if [ -z "$$min" ] || [ $$us -lt $$min ]; then min=$$us; fi; \
	  done; echo $$min; }; \
	within() { echo "$$1: n = 64 in $$2 us, large in $$3 us"; \
	  [ $$3 -le $$(( 2 * $$2 )) ] || { echo "$$1: the large program took over twice as long"; exit 1; }; }; \
	small=$$(best target/release/xdpc opt $$dir/simple_small.xdp); \
	large=$$(best target/release/xdpc opt $$dir/simple_large.xdp); \
	for pass in vectorize-messages localize-bounds bind-communication; do \
	  grep -q "pass $$pass: changed" $$dir/said || { echo "simple at n = 2^20: $$pass did not fire"; exit 1; }; \
	done; \
	within "xdpc opt (simple)" $$small $$large; \
	small=$$(best target/release/xdpc opt --passes fuse-loops $$dir/pair_small.xdp); \
	large=$$(best target/release/xdpc opt --passes fuse-loops $$dir/pair_large.xdp); \
	grep -q "pass fuse-loops: changed" $$dir/said || { echo "pair at n = 2^16: did not fuse"; exit 1; }; \
	within "xdpc opt --passes fuse-loops (pair)" $$small $$large

# The profile that names the layer (ROADMAP aim 1), in one command:
# `make layer-rows W=exec-compute` runs that workload's traced smoke run
# and keeps the rows that say where a step's time goes, then the counts a
# host-speed change must leave bit-identical (symbol-table queries and
# segment scans, the modelled machine's virtual time). No gate — wall
# clock stays out of `cargo test`. Two runs (two commits, two hosts, two
# minutes apart) compare only after dividing each by its own
# `bench.calib_ns`.
layer-rows:
	@test -n "$(W)" || { echo "usage: make layer-rows W=<workload>   (one of: serve-small serve-cold exec-compute exec-comm exec-comm-tasks)"; exit 2; }
	@out=$$(bash benchmark/run.sh --workload $(W) --seed 1 --smoke --trace 1) \
	  || { echo "$$out" | tail -n 5; exit 1; }; \
	echo "$$out" | grep -E '^  (bench\.calib_ns|bench\.run_one_us|ir\.[a-z_]+_ns|runtime\.symtab_[a-z_]+_ns|runtime\.ownership_transfer_ns|vm\.step_ns|core\.interp\.step_ns|vm\.run_us|verify\.fingerprint_us|trace\.events|runtime\.symtab_queries|runtime\.segments_scanned|model\.virtual_us) '

# Non-test source lines per crate: for each file under crates/<c>/src, the
# lines before its first `#[cfg(test)]`, summed. The count a [simplicity]
# PR is held to (ROADMAP aim 2) — comments and blank lines included, so
# deleting those moves it and does not count. Then the bytes of the three
# documents every reader pays for (DESIGN, CHANGES, EXPERIMENTS).
src-lines:
	@for c in crates/*/; do n=0; \
	  for f in $$(find $${c}src -name '*.rs'); do \
	    n=$$((n + $$(awk '/#\[cfg\(test\)\]/{exit} {k++} END{print k+0}' $$f))); \
	  done; printf '%-12s %6d\n' $$(basename $$c) $$n; done
	@wc -c DESIGN.md CHANGES.md EXPERIMENTS.md

# Every figure/experiment table (EXPERIMENTS.md sources), each asserted:
# the paper's claims are the tests of tests/paper_claims.rs (DESIGN §3),
# E15 and E17 included. One of them: append `--exact e8` after `--`.
experiments:
	cargo test --release --test paper_claims -- --include-ignored --nocapture --test-threads 1

# A longer differential fuzz sweep via the CLI (CI runs --count 200).
fuzz:
	cargo run -q --release --bin xdpc -- fuzz --count 500 --seed 7

# Serve the corpus interactively: registry listing + a repeated run.
serve:
	cargo run -q --release --bin xdpd -- list
	cargo run -q --release --bin xdpd -- run xdp-programs/fft3d.xdp --repeat 5

# Serve a short replay and print the pool's Prometheus exposition.
stats:
	cargo run -q --release --bin xdpd -- stats

examples:
	@for e in quickstart fft3d paper_listings load_balance redistribute \
	          collectives memory_hierarchy debug_monitor; do \
	    echo "==== $$e ===="; \
	    cargo run -q --release --example $$e; \
	done

clean:
	cargo clean
