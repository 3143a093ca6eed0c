"""Helpers shared by the test packages."""
