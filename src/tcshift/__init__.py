"""Subnormality tests and Berger-measure reconstruction for 2-variable
weighted shifts whose core is of tensor form."""
