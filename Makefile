.PHONY: check lint test inventory reach stress obs backend dataplane service stream ml bench

check:
	bash scripts/check.sh

lint:
	bash scripts/check.sh lint

test:
	bash scripts/check.sh test

inventory:
	bash scripts/check.sh inventory

reach:
	bash scripts/check.sh reach

stress:
	bash scripts/check.sh stress

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
