"""Advertisements: generation from DTDs and XPE intersection tests."""

from repro.adverts.model import (
    Advertisement,
    AdvertisementKind,
    Lit,
    Rep,
    simple_recursive,
)
from repro.adverts.generator import generate_advertisements
from repro.adverts.matching import (
    abs_expr_and_adv,
    des_expr_and_adv,
    rel_expr_and_adv,
    rel_expr_and_adv_naive,
    node_tests_overlap,
)
from repro.adverts.recursive import (
    abs_expr_and_sim_rec_adv,
    expr_and_advertisement,
)
from repro.adverts.nfa import AdvertNFA, expr_and_advert_nfa

__all__ = [
    "Advertisement",
    "AdvertisementKind",
    "Lit",
    "Rep",
    "simple_recursive",
    "generate_advertisements",
    "abs_expr_and_adv",
    "des_expr_and_adv",
    "rel_expr_and_adv",
    "rel_expr_and_adv_naive",
    "node_tests_overlap",
    "abs_expr_and_sim_rec_adv",
    "expr_and_advertisement",
    "AdvertNFA",
    "expr_and_advert_nfa",
]
