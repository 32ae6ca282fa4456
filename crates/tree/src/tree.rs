//! Finite ordered unranked labelled trees.
//!
//! The accessors mirror Section 2.1.1 of the paper: for a node `x` of a tree
//! `t` we can ask for `parent(x)`, `children(x)`, `tree_t(x)` (the subtree
//! rooted at `x`), `lab(x)`, `anc-str(x)` (labels from the root down to `x`)
//! and `child-str(x)` (labels of the children in left-to-right order). The
//! size `‖t‖` is the number of nodes.

use std::fmt;

use dxml_automata::Symbol;

/// Identifier of a node inside an [`XTree`] arena.
pub type NodeId = usize;

#[derive(Clone, Debug, PartialEq, Eq)]
struct NodeData {
    label: Symbol,
    parent: Option<NodeId>,
    children: Vec<NodeId>,
}

/// A finite ordered unranked tree with [`Symbol`] labels, stored in an arena.
///
/// The root is always node `0`. Node identifiers are stable under
/// [`XTree::add_child`] but not across structural editing operations such as
/// [`XTree::replace_with_forest`], which rebuild the arena.
#[derive(Clone)]
pub struct XTree {
    nodes: Vec<NodeData>,
}

/// A forest: an ordered sequence of trees. The paper's extension operation
/// replaces a function node by the forest of trees directly connected to the
/// root of the document returned by the resource.
pub type XForest = Vec<XTree>;

impl XTree {
    /// Creates a single-node tree with the given root label.
    pub fn leaf(label: impl Into<Symbol>) -> XTree {
        XTree {
            nodes: vec![NodeData { label: label.into(), parent: None, children: Vec::new() }],
        }
    }

    /// Creates a tree with the given root label and subtrees.
    pub fn node(label: impl Into<Symbol>, children: Vec<XTree>) -> XTree {
        let mut tree = XTree::leaf(label);
        for child in children {
            tree.graft(0, &child);
        }
        tree
    }

    /// The root node (always `0`).
    pub fn root(&self) -> NodeId {
        0
    }

    /// The number of nodes `‖t‖`.
    pub fn size(&self) -> usize {
        self.nodes.len()
    }

    /// The label of a node.
    pub fn label(&self, node: NodeId) -> &Symbol {
        &self.nodes[node].label
    }

    /// The label of the root.
    pub fn root_label(&self) -> &Symbol {
        self.label(0)
    }

    /// The parent of a node (`None` for the root).
    pub fn parent(&self, node: NodeId) -> Option<NodeId> {
        self.nodes[node].parent
    }

    /// The children of a node, in left-to-right order.
    pub fn children(&self, node: NodeId) -> &[NodeId] {
        &self.nodes[node].children
    }

    /// Whether a node is a leaf.
    pub fn is_leaf(&self, node: NodeId) -> bool {
        self.nodes[node].children.is_empty()
    }

    /// `child-str(x)`: the labels of the children of `x` in left-to-right
    /// order.
    pub fn child_str(&self, node: NodeId) -> Vec<Symbol> {
        self.nodes[node].children.iter().map(|&c| self.nodes[c].label).collect()
    }

    /// `anc-str(x)`: the labels on the path from the root down to `x`
    /// (inclusive).
    pub fn anc_str(&self, node: NodeId) -> Vec<Symbol> {
        let mut path = Vec::new();
        let mut cur = Some(node);
        while let Some(n) = cur {
            path.push(self.nodes[n].label);
            cur = self.nodes[n].parent;
        }
        path.reverse();
        path
    }

    /// Adds a child with the given label as the new last child of `parent`,
    /// returning its node id.
    ///
    /// # Panics
    ///
    /// Panics if `parent` is not a node of the tree.
    pub fn add_child(&mut self, parent: NodeId, label: impl Into<Symbol>) -> NodeId {
        assert!(parent < self.nodes.len(), "invalid parent node");
        let id = self.nodes.len();
        self.nodes.push(NodeData { label: label.into(), parent: Some(parent), children: Vec::new() });
        self.nodes[parent].children.push(id);
        id
    }

    /// Grafts a copy of `subtree` as the new last child of `parent`,
    /// returning the id of the copied root.
    pub fn graft(&mut self, parent: NodeId, subtree: &XTree) -> NodeId {
        let root_id = self.add_child(parent, *subtree.root_label());
        self.graft_children(root_id, subtree, subtree.root());
        root_id
    }

    fn graft_children(&mut self, target: NodeId, source: &XTree, source_node: NodeId) {
        // Iterative so grafting (and everything built on it: `node`,
        // `subtree`, `graft`) copes with arbitrarily deep sources. All
        // children of a source node are appended before descending, so
        // sibling order is preserved regardless of stack order.
        let mut stack = vec![(target, source_node)];
        while let Some((into, from)) = stack.pop() {
            for &child in source.children(from) {
                let new_id = self.add_child(into, *source.label(child));
                stack.push((new_id, child));
            }
        }
    }

    /// `tree_t(x)`: the subtree rooted at `node`, as a fresh tree.
    pub fn subtree(&self, node: NodeId) -> XTree {
        let mut out = XTree::leaf(*self.label(node));
        out.graft_children(0, self, node);
        out
    }

    /// The nodes in document (pre-) order.
    pub fn document_order(&self) -> Vec<NodeId> {
        let mut order = Vec::with_capacity(self.nodes.len());
        let mut stack = vec![0];
        while let Some(n) = stack.pop() {
            order.push(n);
            for &c in self.nodes[n].children.iter().rev() {
                stack.push(c);
            }
        }
        order
    }

    /// The nodes in bottom-up order (every node appears after all of its
    /// children) — convenient for the bottom-up runs of tree automata.
    pub fn bottom_up_order(&self) -> Vec<NodeId> {
        let mut order = self.document_order();
        order.reverse();
        order
    }

    /// The leaves in document order.
    pub fn leaves(&self) -> Vec<NodeId> {
        self.document_order().into_iter().filter(|&n| self.is_leaf(n)).collect()
    }

    /// The set of labels used in the tree.
    pub fn labels(&self) -> dxml_automata::Alphabet {
        self.nodes.iter().map(|n| n.label).collect()
    }

    /// The depth of the tree (a single node has depth 1).
    pub fn depth(&self) -> usize {
        // Document order visits parents before children, so each node's
        // depth is available from its parent's — no recursion.
        let mut depths = vec![1usize; self.nodes.len()];
        let mut max = 1;
        for n in self.document_order() {
            if let Some(p) = self.nodes[n].parent {
                depths[n] = depths[p] + 1;
                max = max.max(depths[n]);
            }
        }
        max
    }

    /// Replaces every node whose label satisfies `is_target` by the forest
    /// produced by `replacement` for that node, rebuilding the tree.
    ///
    /// This is the *materialisation* primitive: the extension
    /// `ext_T(t1..tn)` of a kernel replaces each function node `fi` by the
    /// forest of trees directly connected to the root of `ti` (Section 2.3).
    /// Target nodes must be leaves (as function nodes are).
    ///
    /// # Panics
    ///
    /// Panics if the root itself satisfies `is_target`: a kernel's root is
    /// never a function node.
    pub fn replace_with_forest(
        &self,
        is_target: impl Fn(&Symbol) -> bool,
        mut replacement: impl FnMut(&Symbol) -> XForest,
    ) -> XTree {
        fn rec(
            source: &XTree,
            node: NodeId,
            out: &mut XTree,
            out_parent: NodeId,
            is_target: &impl Fn(&Symbol) -> bool,
            replacement: &mut impl FnMut(&Symbol) -> XForest,
        ) {
            for &child in source.children(node) {
                let label = source.label(child);
                if is_target(label) {
                    assert!(
                        source.is_leaf(child),
                        "replace_with_forest: target node `{label}` is not a leaf"
                    );
                    for tree in replacement(label) {
                        out.graft(out_parent, &tree);
                    }
                } else {
                    let new_id = out.add_child(out_parent, *label);
                    rec(source, child, out, new_id, is_target, replacement);
                }
            }
        }
        assert!(
            !is_target(self.root_label()),
            "replace_with_forest: the root cannot be a function node"
        );
        let mut out = XTree::leaf(*self.root_label());
        rec(self, 0, &mut out, 0, &is_target, &mut replacement);
        out
    }

    /// Replaces the subtree rooted at `node` by the subtree `new`, returning
    /// a fresh tree. Used by the closure-property checks (subtree exchange).
    pub fn with_subtree_replaced(&self, node: NodeId, new: &XTree) -> XTree {
        fn rec(source: &XTree, n: NodeId, target: NodeId, new: &XTree, out: &mut XTree, out_node: NodeId) {
            for &child in source.children(n) {
                if child == target {
                    out.graft(out_node, new);
                } else {
                    let id = out.add_child(out_node, *source.label(child));
                    rec(source, child, target, new, out, id);
                }
            }
        }
        if node == 0 {
            return new.clone();
        }
        let mut out = XTree::leaf(*self.root_label());
        rec(self, 0, node, new, &mut out, 0);
        out
    }
}

impl PartialEq for XTree {
    fn eq(&self, other: &Self) -> bool {
        if self.nodes.len() != other.nodes.len() {
            return false;
        }
        let mut stack = vec![(0, 0)];
        while let Some((na, nb)) = stack.pop() {
            if self.label(na) != other.label(nb)
                || self.children(na).len() != other.children(nb).len()
            {
                return false;
            }
            stack.extend(self.children(na).iter().copied().zip(other.children(nb).iter().copied()));
        }
        true
    }
}

impl Eq for XTree {}

impl fmt::Debug for XTree {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", crate::term::to_term(self))
    }
}

impl fmt::Display for XTree {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", crate::term::to_term(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> XTree {
        // s(a f1 b(f2))  — the kernel T0 of Section 2.2.1
        XTree::node(
            "s",
            vec![XTree::leaf("a"), XTree::leaf("f1"), XTree::node("b", vec![XTree::leaf("f2")])],
        )
    }

    /// The nodes carrying `label`, in document order.
    fn labelled(t: &XTree, label: &str) -> Vec<NodeId> {
        t.document_order().into_iter().filter(|&n| t.label(n).as_str() == label).collect()
    }

    #[test]
    fn construction_and_accessors() {
        let t = sample();
        assert_eq!(t.size(), 5);
        assert_eq!(t.root_label().as_str(), "s");
        assert_eq!(t.child_str(t.root()), vec!["a".into(), "f1".into(), "b".into()]);
        let b = labelled(&t, "b")[0];
        assert_eq!(t.child_str(b), vec![Symbol::new("f2")]);
        assert_eq!(t.anc_str(b), vec![Symbol::new("s"), Symbol::new("b")]);
        let f2 = labelled(&t, "f2")[0];
        assert_eq!(t.anc_str(f2), vec![Symbol::new("s"), Symbol::new("b"), Symbol::new("f2")]);
        assert_eq!(t.depth(), 3);
        assert_eq!(t.leaves().len(), 3);
        assert!(t.is_leaf(f2));
        assert_eq!(t.parent(b), Some(t.root()));
        assert_eq!(t.parent(t.root()), None);
    }

    #[test]
    fn subtree_and_equality() {
        let t = sample();
        let b = labelled(&t, "b")[0];
        let sub = t.subtree(b);
        assert_eq!(sub, XTree::node("b", vec![XTree::leaf("f2")]));
        assert_ne!(sub, XTree::leaf("b"));
        assert_eq!(t, sample());
    }

    #[test]
    fn document_and_bottom_up_order() {
        let t = sample();
        let order = t.document_order();
        assert_eq!(order[0], t.root());
        let labels: Vec<&str> = order.iter().map(|&n| t.label(n).as_str()).collect();
        assert_eq!(labels, vec!["s", "a", "f1", "b", "f2"]);
        let bu = t.bottom_up_order();
        // every node appears after its children
        for (i, &n) in bu.iter().enumerate() {
            for &c in t.children(n) {
                assert!(bu.iter().position(|&x| x == c).unwrap() < i);
            }
        }
    }

    #[test]
    fn replace_with_forest_materialises_extension() {
        // The example from Section 2.3: T0 = s(a f1 b(f2)), f1 returns
        // s1(c(dd)) and f2 returns s2(d(ef)); the extension is
        // s(a c(dd) b(d(ef))).
        let t = sample();
        let ext = t.replace_with_forest(
            |l| l.as_str().starts_with('f'),
            |l| {
                if l.as_str() == "f1" {
                    vec![XTree::node("c", vec![XTree::leaf("d"), XTree::leaf("d")])]
                } else {
                    vec![XTree::node("d", vec![XTree::leaf("e"), XTree::leaf("f")])]
                }
            },
        );
        let expected = XTree::node(
            "s",
            vec![
                XTree::leaf("a"),
                XTree::node("c", vec![XTree::leaf("d"), XTree::leaf("d")]),
                XTree::node("b", vec![XTree::node("d", vec![XTree::leaf("e"), XTree::leaf("f")])]),
            ],
        );
        assert_eq!(ext, expected);
    }

    #[test]
    fn replace_with_empty_and_multi_tree_forest() {
        let t = XTree::node("s", vec![XTree::leaf("f1")]);
        let empty = t.replace_with_forest(|l| l.as_str() == "f1", |_| vec![]);
        assert_eq!(empty, XTree::leaf("s"));
        let multi = t.replace_with_forest(
            |l| l.as_str() == "f1",
            |_| vec![XTree::leaf("a"), XTree::leaf("b")],
        );
        assert_eq!(multi, XTree::node("s", vec![XTree::leaf("a"), XTree::leaf("b")]));
    }

    #[test]
    fn subtree_replacement_and_relabelling() {
        let t = sample();
        let a = labelled(&t, "a")[0];
        let replaced = t.with_subtree_replaced(a, &XTree::node("x", vec![XTree::leaf("y")]));
        assert_eq!(labelled(&replaced, "x").len(), 1);
        assert_eq!(replaced.size(), 6);
    }
}
