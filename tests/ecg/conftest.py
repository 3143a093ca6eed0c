"""Shorthands the ECG tests draw recordings with."""

from __future__ import annotations

import functools

from repro.ecg.generator import generate_recording

#: ``generate_*(duration, rng, cfg=None)``: one recording of a class.
generate_nsr = functools.partial(generate_recording, "N")
generate_af = functools.partial(generate_recording, "AF")
generate_other = functools.partial(generate_recording, "O")
