"""Corpus file that does NOT mention disk.never_tested."""

ARMED = ("disk.some_other_site", "disk.never_bound")
