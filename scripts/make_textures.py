#!/usr/bin/env python3
"""Write a batch of procedural grayscale textures as PGM files.

These serve as pristine base images for synthetic distortion datasets:
band-limited oriented sinusoid mixtures, deterministic in the seed.
"""

import argparse
import os

from tempqt.imaging import make_texture, save_image
from tempqt.rng import derive_seed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--count", type=int, default=20)
    parser.add_argument("--size", type=int, default=64)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    os.makedirs(args.out, exist_ok=True)
    for i in range(args.count):
        img = make_texture(args.size, args.size, derive_seed(args.seed, "texture", i))
        path = os.path.join(args.out, f"texture_{i:03d}.pgm")
        save_image(img, path)
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
