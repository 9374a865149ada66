"""A narrative tour: one weight, two computations, one bijection.

Run with: python demos/walkthrough.py
"""

from charge_lab.chains import chain_str, mu_chain
from charge_lab.charge import charge
from charge_lab.fillings import (
    arm_statistic,
    content,
    filling_map,
    filling_str,
    inverse_filling_map,
    ord_filling,
)
from charge_lab.foldings import enumerate_admissible
from charge_lab.poly import charge_formula_t0, ram_yip_t0, render_text, specialize_q, weyl_character
from charge_lab.weyl import LieType, window_str


def main():
    lt = LieType("C", 2)
    mu = (2, 1)
    print(f"type {lt.variant}, n={lt.n}, mu={mu}")

    chain = mu_chain(lt, mu)
    print("\nthe mu-chain (right | left parts per segment):")
    print(" ", chain_str(chain))

    print("\nadmissible folding pairs and their fillings:")
    pairs = list(enumerate_admissible(chain))
    for index, (w, J, level, _) in enumerate(pairs):
        sigma = filling_map(chain, w, J)
        assert inverse_filling_map(chain, sigma) == (w, J)
        if index < 6:
            print(
                f"  w={window_str(w):6} J={str(J):22}"
                f" level={level} charge={charge(ord_filling(sigma))}"
                f" arm={arm_statistic(sigma)} content={content(sigma)}"
            )
    print(f"  ... {len(pairs)} pairs in total, every one round-trips")

    print("\none filling in full (split KN columns, barred letters as i~):")
    w, J, _, _ = pairs[-1]
    print(filling_str(filling_map(chain, w, J)))

    p = ram_yip_t0(lt, mu)
    assert p == charge_formula_t0(lt, mu)
    print("\nP_mu(X; q, 0), identical by both constructions:")
    print(" ", render_text(p))
    assert specialize_q(p, 0) == weyl_character(lt, mu)
    print("\nat q=0 this is the irreducible character of highest weight mu.")


if __name__ == "__main__":
    main()
