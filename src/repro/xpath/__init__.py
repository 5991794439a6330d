"""The XPath-expression (XPE) subscription language of the paper.

Exports the AST (:class:`XPathExpr`, :class:`Step`, :class:`Axis`,
:data:`WILDCARD`) and the parser (:func:`parse_xpath`).
"""

from repro.xpath.ast import (
    Axis,
    Step,
    WILDCARD,
    XPathExpr,
    steps_from_tests,
)
from repro.xpath.parser import parse_xpath, try_parse_xpath

__all__ = [
    "Axis",
    "Step",
    "WILDCARD",
    "XPathExpr",
    "steps_from_tests",
    "parse_xpath",
    "try_parse_xpath",
]
