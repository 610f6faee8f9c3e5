"""Cycle-accurate network-on-package simulator (Booksim substitute).

Implements the four evaluated NoP topologies (Figure 10): electrical ring
and mesh as flit-level VC wormhole networks, the shared optical bus as a
token-arbitrated MWSR circuit network, and the Flumen MZIM as a
wavefront-arbitrated non-blocking crossbar with reconfiguration delays and
scheduler-controllable port blocking.
"""
