"""Seeded synthetic interaction generator for the benchmark workloads.

Items get a Zipf popularity over a random permutation and belong to one of
``clusters`` latent clusters.  Each user prefers two clusters: a share of
their basket is drawn from those clusters by popularity, the rest from the
global popularity law.  Every item is touched at least once, so the item
count of the written file is exactly ``num_items``.  The output is a
``user,item`` CSV with a header; the program under test receives only it.
"""

from __future__ import annotations

import numpy as np


def interactions(seed, num_users, num_items, mean_basket, clusters=16,
                 zipf=0.9, in_cluster=0.7):
    """Return sorted unique (users, items) index arrays for one workload."""
    rng = np.random.default_rng(seed)
    pop = 1.0 / np.arange(1, num_items + 1) ** zipf
    pop = pop[rng.permutation(num_items)]
    cluster_of = rng.integers(clusters, size=num_items)

    # Per-cluster inverse CDFs laid end to end: item order groups clusters.
    by_cluster = np.argsort(cluster_of, kind="stable")
    starts = np.searchsorted(cluster_of[by_cluster], np.arange(clusters + 1))
    cum = np.cumsum(pop[by_cluster])
    lo = np.concatenate([[0.0], cum])[starts[:-1]]
    hi = cum[starts[1:] - 1]
    global_cdf = np.cumsum(pop) / pop.sum()

    # Repeated draws of a popular item are merged below, so baskets end up
    # somewhat smaller than ``mean_basket``.
    basket = 1 + rng.poisson(mean_basket - 1, size=num_users)
    users = np.repeat(np.arange(num_users, dtype=np.int64), basket)
    first = rng.integers(clusters, size=num_users)
    second = (first + 1 + rng.integers(clusters - 1, size=num_users)) % clusters
    prefs = np.stack([first, second], axis=1)
    draw_cluster = prefs[users, rng.integers(2, size=users.size)]
    from_cluster = rng.random(users.size) < in_cluster

    u = rng.random(users.size)
    clustered = by_cluster[np.minimum(
        np.searchsorted(cum, lo[draw_cluster] + u * (hi[draw_cluster] - lo[draw_cluster]),
                        side="right"),
        starts[draw_cluster + 1] - 1)]
    diffuse = np.minimum(np.searchsorted(global_cdf, u, side="right"), num_items - 1)
    items = np.where(from_cluster, clustered, diffuse)

    # Every item at least once, on a random user.
    users = np.concatenate([users, rng.integers(num_users, size=num_items)])
    items = np.concatenate([items, np.arange(num_items)])
    keys = np.unique(users * num_items + items)
    return keys // num_items, keys % num_items


def write_csv(path, users, items):
    """Write ``user,item`` lines (ids ``u<index>``, ``i<index>``) with a header."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("user,item\n")
        handle.write("".join(f"u{a},i{b}\n" for a, b in zip(users.tolist(), items.tolist())))


def main(argv):
    """``gen.py OUT_CSV SEED USERS ITEMS MEAN_BASKET``: write one input file."""
    out, seed, num_users, num_items, basket = argv
    users, items = interactions(int(seed), int(num_users), int(num_items), float(basket))
    write_csv(out, users, items)
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main(sys.argv[1:]))
