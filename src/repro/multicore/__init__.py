"""Multicore substrate: caches, cores, energy and area (Sniper + McPAT
substitute).
"""
