"""Photonic substrate: devices, MZIM meshes, the Flumen fabric, and power.

This package is the reproduction's replacement for the paper's Lumerical
INTERCONNECT models: exact transfer-matrix simulation of MZI meshes plus
analytic loss/power/noise accounting from the Table 2 device parameters.
"""
