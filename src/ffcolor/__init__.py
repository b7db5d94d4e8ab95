"""ffcolor: deterministic finitary colorings of lattices with verified locality.

The package builds proper colorings of Z^d windows (and bounded-degree graphs)
where every output color is a pure function of iid site labels in a finite
neighborhood, records exactly which labels each query touched, and ships the
audits that check properness, net geometry, tiling invariants, and empirical
coding-radius tails.

The root holds only the version; import names from their modules (`field`,
`lattice`, `covfree`, `reduction`, `fourcolor`, `perc3color`, `tiling3color`,
`sft`, `verify`, `cli`).
"""

__version__ = "0.1.0"
