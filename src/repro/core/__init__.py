"""The paper's contribution: offload mapping, control unit, Algorithm 1
scheduler, and the end-to-end system model.
"""
