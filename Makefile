.PHONY: check lint test inventory stress obs backend dataplane service stream ml bench

check:
	bash scripts/check.sh

lint:
	bash scripts/check.sh lint

test:
	bash scripts/check.sh test

inventory:
	bash scripts/check.sh inventory

stress:
	PYTHONPATH=src python -m pytest --hypothesis-profile=stress -q tests/runtime/test_stress.py tests/streaming/test_stress_stream.py

obs:
	bash scripts/check.sh obs

backend:
	bash scripts/check.sh backend

dataplane:
	bash scripts/check.sh dataplane

service:
	bash scripts/check.sh service

stream:
	bash scripts/check.sh stream

ml:
	bash scripts/check.sh ml

bench:
	bash scripts/check.sh bench
