"""Equilibria in turn-based multiplayer games on finite graphs.

Core surface:

- games: arenas, payoff specs, lassos, memory structures, product games,
  induced Markov chains, the JSON file formats.
- zerosum: attractors, parity solving, minimum mean cycles, qualitative
  stochastic reachability, the extreme-value threshold sweep.
- negotiation: requirements, lambda-consistency, the negotiation function
  for parity and mean-payoff games, its iteration and (eps-)fixed points.
- nash: NE outcome checking, constrained existence, finite-memory NE
  verification (energy and generic modes).
- spe: (eps-)SPE constrained existence with checkable witnesses, eps_min.
- stochastic: simple stochastic games, extreme/entropic risk measures,
  XRSE construction, verification and bounded search, stationary ERSEs.
- verification: rational verification via product games, achaotic variant.
- cli: the `equilibra` command.

The graph kernels (reachability, attractors, SCCs) shared by these modules
live in `equilibra._kernels`.
"""

__version__ = "0.1.0"
