#!/usr/bin/env python3
"""Export the gallery of surface meshes for the normalized family.

Writes one OBJ per family parameter into the output directory (default
./figures).  These are fundamental-domain meshes plus one translated copy,
with per-vertex unit normals; PLY output additionally carries |K| in the
quality channel for curvature coloring.  Each file's JSON line carries the
sha256 of its bytes, so two runs wrote the same files when `diff` finds
their output equal.
"""

import argparse
import hashlib
import json
import pathlib

from riemann_examples import Lambda, Normalization
from riemann_examples.mesh import build_mesh, export

GALLERY = (0.1, 0.5, 1.0, 3.0, 5.0, 10.0)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out-dir", default="figures")
    ap.add_argument("--format", choices=["obj", "ply"], default="obj")
    ap.add_argument("--resolution", default="48x96")
    ap.add_argument("--copies", type=int, default=2)
    args = ap.parse_args()

    out_dir = pathlib.Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    n_rad, n_ang = (int(x) for x in args.resolution.split("x"))

    for lv in GALLERY:
        lam = Lambda(lv)
        mesh = build_mesh(lam, Normalization.paper(lam), n_rad=n_rad,
                          n_ang=n_ang, copies=args.copies)
        path = out_dir / f"riemann_lambda_{lv:g}.{args.format}"
        export(mesh, args.format, path)
        print(json.dumps({
            "lambda": lv, "file": str(path),
            "vertices": mesh.n_vertices, "triangles": mesh.n_triangles,
            "max_abs_curvature": float(mesh.abs_curvature.max()),
            "sha256": hashlib.sha256(path.read_bytes()).hexdigest(),
        }))


if __name__ == "__main__":
    main()
