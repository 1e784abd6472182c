"""Pipeline benchmark for dmlab; see run.py."""
