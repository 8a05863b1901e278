#!/usr/bin/env python3
"""Re-derive a "special solution" from scratch.

The paper's ``G(6,2)``, ``G(8,2)``, ``G(4,3)``, ``G(7,3)`` were
"intuitively designed and exhaustively verified by human and/or computer
checking".  This example repeats the computer part: a constrained random
search over degree-exact processor graphs with exhaustive fault
verification, reproducing a valid witness for Figure 10 in seconds.

Run:  python examples/search_special.py [n k max_degree]
"""

import sys

from repro import verify_exhaustive_parallel
from repro.analysis import network_summary
from repro.core.search import random_search_standard_solution


def main() -> None:
    if len(sys.argv) == 4:
        n, k, max_degree = map(int, sys.argv[1:])
    else:
        n, k, max_degree = 6, 2, 4  # Figure 10's parameters

    print(f"Searching for a standard {k}-GD graph for n={n} with max "
          f"processor degree {max_degree} ...")
    result = random_search_standard_solution(n, k, max_degree, trials=30_000, rng=2024)
    if not result.found:
        print("no solution found within the trial budget")
        sys.exit(1)

    net = result.network
    print(f"found after {result.trials_used} candidate graphs:")
    print(network_summary(net))
    print()
    print(f"processor edges: {result.proc_edges}")
    print(f"inputs at processors  {result.input_at}")
    print(f"outputs at processors {result.output_at}")

    cert = verify_exhaustive_parallel(net)
    print()
    print(cert.summary())
    assert cert.is_proof, "search results are exhaustively verified"
    assert net.max_processor_degree() == max_degree


if __name__ == "__main__":
    main()
