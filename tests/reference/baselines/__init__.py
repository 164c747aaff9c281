"""Frozen enumerator snapshots, kept as bit-identity references."""
