//! S1: unchecked indexing and unwraps in the service layer.

#[derive(Clone, Debug)]
pub struct Decoder {
    pos: usize,
    vals: Vec<[u8; 4]>,
    tag: &'static [u8],
}

impl Decoder {
    pub fn byte(&self, buf: &[u8]) -> u8 {
        buf[self.pos] //~ indexing_slicing
    }

    pub fn tail<'a>(&self, b: &'a [u8]) -> &'a [u8] {
        &b[4..] //~ indexing_slicing
    }

    pub fn first(&self) -> [u8; 4] {
        self.vals[0] //~ indexing_slicing
    }

    pub fn rest(&self) -> Vec<[u8; 4]> {
        self.vals.to_vec()[self.pos..].to_vec() //~ indexing_slicing
    }

    pub fn checked(&self, buf: &[u8]) -> Option<u8> {
        buf.get(self.pos).copied().or(self.tag.first().copied())
    }

    pub fn unwrapped(&self, buf: &[u8]) -> u8 {
        *buf.first().unwrap() //~ unwrap_used
    }
}

pub fn brackets(ps: &[[u8; 2]], xs: [u8; 2], go: bool) -> Vec<u8> {
    if ps.is_empty() {
        return [0; 4].to_vec();
    }
    let mut out = vec![0u8; 4];
    for [a, b] in ps.iter().copied() {
        out.push(a ^ b);
    }
    let [a, b] = xs;
    out.push(match [a, b] {
        [0, _] => 0,
        _ => 1,
    });
    out.extend(if go { [1] } else { [0] });
    if let [first, ..] = ps {
        out.extend(first);
    }
    out
}
