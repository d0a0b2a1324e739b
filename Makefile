.PHONY: all build test bench e2e work-counts fmt check clean

all: build

build:
	dune build

test:
	dune runtest

bench:
	dune exec bench/main.exe -- all

# every end-to-end scenario of test/e2e.sh, against the built binaries
e2e: build
	bash test/e2e.sh

# perfbench's deterministic work counts at seed 7, compared exactly with
# the pins in test/work_counts.json
work-counts:
	bash test/e2e.sh work-counts

# dune build @fmt needs ocamlformat + an .ocamlformat file; skip gracefully
# where the tool is absent so `make check` works in every environment
fmt:
	@if command -v ocamlformat >/dev/null 2>&1 && [ -f .ocamlformat ]; then \
	  dune build @fmt; \
	else \
	  echo "ocamlformat not available; skipping format check"; \
	fi

check: build test fmt e2e

clean:
	dune clean
