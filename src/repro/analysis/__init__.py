"""Metrics, sweeps, exports, and paper-style reporting."""
