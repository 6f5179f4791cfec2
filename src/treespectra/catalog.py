"""Persisted records for discovered trees (one JSON object per line), each
a pure function of its tree's code and the parameters of its search.
CatalogRecord.of builds each one, and from_json reads back exactly the
seven keys to_json writes: a missing or unknown key raises TypeError."""

from __future__ import annotations

import json
from dataclasses import dataclass

from .spectra import TreeSpectrum, _char_poly
from .trees import Tree


@dataclass
class CatalogRecord:
    """Everything needed to reproduce one catalog entry from its code, with
    the order cap and shard of the search that wrote it."""

    code: str
    order: int
    nullity: int
    spectrum: dict
    char_poly: str
    order_cap: int
    shard: str

    @classmethod
    def of(cls, code: tuple, order, parent: list, order_cap: int,
           shard: str) -> "CatalogRecord":
        """The record of a canonical code, with the polynomial folded on the
        rooted order and parent array of that tree."""
        phi = _char_poly(order, parent)
        summary = TreeSpectrum.of(phi).summary
        return cls(code=",".join(map(str, code)), order=phi.degree,
                   nullity=summary.nullity,
                   spectrum={str(k): m for k, m in sorted(summary.roots.items())},
                   char_poly=phi.to_text(), order_cap=order_cap, shard=shard)

    def to_json(self) -> str:
        # the bytes of json.dumps(vars(self), sort_keys=True); perfbench's
        # planted-wrong-answer test edits this payload's char_poly line
        payload = {
            "code": self.code,
            "order": self.order,
            "nullity": self.nullity,
            "spectrum": self.spectrum,
            "char_poly": self.char_poly,
            "order_cap": self.order_cap,
            "shard": self.shard,
        }
        return json.dumps(payload, sort_keys=True)

    @classmethod
    def from_json(cls, line: str) -> "CatalogRecord":
        return cls(**json.loads(line))

    def roundtrip_ok(self) -> bool:
        """Re-derive everything from the code and compare to stored fields."""
        return self == CatalogRecord.of(
            *Tree.from_code(self.code).canonical_rooting(), self.order_cap,
            self.shard)
