"""Tour of the three study domains and their uniform triangulations.

Builds the unit square, the L-shaped domain (unit square minus its closed
upper-right quadrant), and the slit square (unit square cut along the
segment from the tip (1/2, 1/2) to (1, 1/2)) at a small level, prints the mesh
inventory, walks the boundary, and shows how the slit is represented by
duplicated vertices carrying a side flag.
"""

import io

import numpy as np

from steklovfem import DomainSpec, ancestor_map, generate_mesh, write_mesh

for kind in ("square", "lshape", "slit"):
    mesh = generate_mesh(DomainSpec(kind), 4)
    print(f"--- {kind}, level 4 (h = sqrt(2)/4) ---")
    print(f"vertices {mesh.n_vertices}, triangles {mesh.n_triangles}, "
          f"boundary edges {len(mesh.boundary_edges)}")

    # The boundary is a single closed curve starting at (0, 0), walked with
    # the domain on the left.  Print the first few vertices it passes.
    walk = [tuple(mesh.vertices[a]) for a, _ in mesh.boundary_edge_vertices()[:6]]
    print("boundary walk starts:", " -> ".join(f"({x:g}, {y:g})" for x, y in walk))

    if kind == "slit":
        dup = (mesh.vertex_slit_side != 0).sum()
        lower = (mesh.vertex_slit_side < 0).sum()
        print(f"slit vertices: {dup} flagged ({lower} lower copies, "
              f"{dup - lower} upper copies); the tip (1/2, 1/2) stays single")
    print()

# Doubling the level halves h and exactly nests the triangles: every coarse
# triangle is split into four children.  The parent map is grid arithmetic
# (`ancestor_map`): triangles 2s and 2s+1 are the lower and upper halves of
# grid square s, and corner 0 of each is the square's lower-left vertex, so
# a fine triangle's coarse square follows from that corner's grid index and
# its orientation from its parity.  The boundary nests the same
# way: each coarse boundary edge is a run of consecutive fine ones, which is
# what lets studies transfer reference traces from any finer level without
# geometric search.
mesh = generate_mesh(DomainSpec("lshape"), 4)
fine = generate_mesh(DomainSpec("lshape"), 8)
children = np.bincount(ancestor_map(mesh, fine), minlength=mesh.n_triangles)
print(f"refining lshape level 4 -> level {fine.level}: "
      f"{mesh.n_triangles} triangles -> {fine.n_triangles} "
      f"({children.min()} children each: {children.sum()})")

# Meshes serialize to a plain text dump (see `steklovfem mesh --help`).
buffer = io.StringIO()
write_mesh(generate_mesh(DomainSpec("square"), 2), buffer)
print("\nmesh dump of the level-2 square:")
print(buffer.getvalue())
