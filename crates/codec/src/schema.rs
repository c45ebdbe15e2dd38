//! One declaration per format. A [`Layout`] says how one value sits in
//! bytes, both ways: `put` appends it, `get` reads it through the bounded
//! [`Cur`], and `MIN` is the fewest bytes it takes, which [`Seq`] hands
//! [`Cur::count`] before sizing a `Vec`. Formats compose the primitives here
//! and are declared once with [`layout!`](crate::layout). A layout whose
//! shape depends on an earlier field is one hand-written `impl Layout`, `put`
//! beside `get`; checks across fields run after the walk.

use crate::cursor::{Cur, Fault};
use crate::varint::write_uvarint;
use hqmr_grid::Dims3;
use std::marker::PhantomData;

/// How one value of [`Layout::T`] is laid out in bytes.
pub trait Layout {
    /// The value written and read.
    type T;
    /// The fewest bytes one value takes: what [`Seq`] hands [`Cur::count`].
    const MIN: usize;
    /// Appends `v`.
    fn put(v: &Self::T, out: &mut Vec<u8>);
    /// Reads one value.
    fn get(c: &mut Cur<'_>) -> Result<Self::T, Fault>;
}

/// `v` in `L`'s bytes.
pub fn encode<L: Layout>(v: &L::T) -> Vec<u8> {
    let mut out = Vec::new();
    L::put(v, &mut out);
    out
}

/// Reads `bytes` as exactly one `L`: [`Fault::Trailing`] if any are left.
pub fn decode<L: Layout>(bytes: &[u8]) -> Result<L::T, Fault> {
    decode_with(bytes, L::get)
}

/// Reads all of `bytes` with `get`: [`Fault::Trailing`] if any are left.
pub fn decode_with<T>(
    bytes: &[u8],
    get: impl FnOnce(&mut Cur<'_>) -> Result<T, Fault>,
) -> Result<T, Fault> {
    let mut c = Cur::new(bytes);
    let v = get(&mut c)?;
    c.done()?;
    Ok(v)
}

macro_rules! fixed {
    ($($(#[$m:meta])* $L:ident: $t:ty, $get:ident;)*) => {$(
        $(#[$m])*
        pub struct $L;
        impl Layout for $L {
            type T = $t;
            const MIN: usize = std::mem::size_of::<$t>();
            #[inline]
            fn put(v: &$t, out: &mut Vec<u8>) {
                out.extend_from_slice(&v.to_le_bytes());
            }
            #[inline]
            fn get(c: &mut Cur<'_>) -> Result<$t, Fault> {
                c.$get()
            }
        }
    )*};
}

fixed! {
    /// One byte.
    U8: u8, u8;
    /// A little-endian `u32`.
    U32: u32, u32le;
    /// A little-endian `u64`.
    U64: u64, u64le;
    /// A little-endian `f32`.
    F32: f32, f32le;
    /// A little-endian `f64`.
    F64: f64, f64le;
}

/// A LEB128 varint that must fit `usize`.
pub struct Var;
impl Layout for Var {
    type T = usize;
    const MIN: usize = 1;
    #[inline]
    fn put(v: &usize, out: &mut Vec<u8>) {
        write_uvarint(out, *v as u64);
    }
    #[inline]
    fn get(c: &mut Cur<'_>) -> Result<usize, Fault> {
        c.usize()
    }
}

/// A LEB128 varint.
pub struct V64;
impl Layout for V64 {
    type T = u64;
    const MIN: usize = 1;
    fn put(v: &u64, out: &mut Vec<u8>) {
        write_uvarint(out, *v);
    }
    fn get(c: &mut Cur<'_>) -> Result<u64, Fault> {
        c.uvarint()
    }
}

/// A LEB128 varint that must fit `u32`: [`Fault::Overflow`] otherwise,
/// never a truncating cast.
pub struct V32;
impl Layout for V32 {
    type T = u32;
    const MIN: usize = 1;
    fn put(v: &u32, out: &mut Vec<u8>) {
        write_uvarint(out, u64::from(*v));
    }
    fn get(c: &mut Cur<'_>) -> Result<u32, Fault> {
        u32::try_from(c.uvarint()?).map_err(|_| Fault::Overflow)
    }
}

/// A [`Var`]-length-prefixed UTF-8 string.
pub struct Str;
impl Layout for Str {
    type T = String;
    const MIN: usize = 1;
    fn put(v: &String, out: &mut Vec<u8>) {
        Var::put(&v.len(), out);
        out.extend_from_slice(v.as_bytes());
    }
    fn get(c: &mut Cur<'_>) -> Result<String, Fault> {
        Ok(c.str()?.to_owned())
    }
}

/// Three [`Var`] extents whose cell product fits `usize` ([`Cur::dims`]).
pub struct Dims;
impl Layout for Dims {
    type T = Dims3;
    const MIN: usize = 3;
    #[inline]
    fn put(v: &Dims3, out: &mut Vec<u8>) {
        v.as_array().iter().for_each(|n| Var::put(n, out));
    }
    #[inline]
    fn get(c: &mut Cur<'_>) -> Result<Dims3, Fault> {
        c.dims()
    }
}

/// A `bool` as one byte, `0` or `1`; any other byte is refused.
pub struct Flag;
impl Layout for Flag {
    type T = bool;
    const MIN: usize = 1;
    fn put(v: &bool, out: &mut Vec<u8>) {
        out.push(u8::from(*v));
    }
    fn get(c: &mut Cur<'_>) -> Result<bool, Fault> {
        match c.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(Fault::Malformed("flag")),
        }
    }
}

/// `N` `L`s.
pub struct Arr<L, const N: usize>(PhantomData<L>);
impl<L: Layout<T: Default>, const N: usize> Layout for Arr<L, N> {
    type T = [L::T; N];
    const MIN: usize = N * L::MIN;
    fn put(v: &[L::T; N], out: &mut Vec<u8>) {
        v.iter().for_each(|x| L::put(x, out));
    }
    fn get(c: &mut Cur<'_>) -> Result<[L::T; N], Fault> {
        let mut v: [L::T; N] = std::array::from_fn(|_| L::T::default());
        for x in &mut v {
            *x = L::get(c)?;
        }
        Ok(v)
    }
}

/// An `A` then a `B`.
pub struct Pair<A, B>(PhantomData<(A, B)>);
impl<A: Layout, B: Layout> Layout for Pair<A, B> {
    type T = (A::T, B::T);
    const MIN: usize = A::MIN + B::MIN;
    fn put((a, b): &(A::T, B::T), out: &mut Vec<u8>) {
        A::put(a, out);
        B::put(b, out);
    }
    fn get(c: &mut Cur<'_>) -> Result<(A::T, B::T), Fault> {
        Ok((A::get(c)?, B::get(c)?))
    }
}

/// A [`Var`] count, then that many `L`s. The count is checked at
/// `L::MIN` bytes each before the `Vec` is sized by it.
pub struct Seq<L>(PhantomData<L>);
impl<L: Layout> Layout for Seq<L> {
    type T = Vec<L::T>;
    const MIN: usize = 1;
    fn put(v: &Vec<L::T>, out: &mut Vec<u8>) {
        Var::put(&v.len(), out);
        v.iter().for_each(|x| L::put(x, out));
    }
    fn get(c: &mut Cur<'_>) -> Result<Vec<L::T>, Fault> {
        let n = c.count(L::MIN)?;
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            v.push(L::get(c)?);
        }
        Ok(v)
    }
}

/// Declares a format's [`Layout`](crate::schema::Layout) once, for both
/// directions. A struct, by its fields in wire order; a tagged enum, by
/// `tag => variant` and the variant's fields (a newtype variant names its
/// field). An enum's marker gets `tag(&v)`, `put_body` and
/// `get_body(tag, c)`, an unknown tag being `Fault::Malformed(what)`; with
/// the default `u8` tag it is also the `Layout` (tag byte, then body),
/// while `by Kind` leaves the tag to travel elsewhere.
///
/// ```ignore
/// layout!(struct StepL: RefinementStep { level: Var, field: FieldL });
/// layout!(enum UpsampleL: Upsample, "upsample tag" { 0 => Nearest, 1 => Trilinear });
/// layout!(enum RequestL: Request by Kind, "response kind in request slot" {
///     Kind::List => List,
///     Kind::Stats => Stats { dataset: U32, take: Flag },
/// });
/// ```
#[macro_export]
macro_rules! layout {
    (
        $(#[$meta:meta])*
        $vis:vis struct $L:ident : $T:ty { $($f:ident : $fl:ty),* $(,)? }
    ) => {
        $(#[$meta])*
        $vis struct $L;
        impl $crate::schema::Layout for $L {
            type T = $T;
            const MIN: usize = 0 $(+ <$fl as $crate::schema::Layout>::MIN)*;
            fn put(v: &$T, out: &mut Vec<u8>) {
                $(<$fl as $crate::schema::Layout>::put(&v.$f, out);)*
            }
            fn get(c: &mut $crate::cursor::Cur<'_>) -> Result<$T, $crate::cursor::Fault> {
                // Fields are read in the order they are listed.
                type S = $T;
                Ok(S { $($f: <$fl as $crate::schema::Layout>::get(c)?,)* })
            }
        }
    };
    (
        $(#[$meta:meta])*
        $vis:vis enum $L:ident : $T:ident $(by $K:ty)?, $what:literal {
            $($tag:expr => $v:ident $(($n:ident : $nl:ty))? $({ $($f:ident : $fl:ty),* $(,)? })?),*
            $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis struct $L;
        impl $L {
            /// The tag `v` travels under.
            #[allow(unused_variables)]
            $vis fn tag(v: &$T) -> $crate::layout!(@tag $($K)?) {
                match v {
                    $($T::$v $(($n))? $({ $($f),* })? => $tag,)*
                }
            }
            /// Appends `v`'s fields, without its tag.
            // An enum of unit variants appends nothing.
            #[allow(clippy::ptr_arg)]
            $vis fn put_body(v: &$T, out: &mut Vec<u8>) {
                match v {
                    $($T::$v $(($n))? $({ $($f),* })? => {
                        $(<$nl as $crate::schema::Layout>::put($n, out);)?
                        $($(<$fl as $crate::schema::Layout>::put($f, out);)*)?
                    })*
                }
            }
            /// Reads the fields of the variant `tag` names.
            $vis fn get_body(
                tag: $crate::layout!(@tag $($K)?),
                c: &mut $crate::cursor::Cur<'_>,
            ) -> Result<$T, $crate::cursor::Fault> {
                $(if tag == $tag {
                    return Ok($T::$v
                        $((<$nl as $crate::schema::Layout>::get(c)?))?
                        $({ $($f: <$fl as $crate::schema::Layout>::get(c)?),* })?);
                })*
                Err($crate::cursor::Fault::Malformed($what))
            }
        }
        $crate::layout!(@u8 $L $T $($K)?);
    };
    (@tag) => { u8 };
    (@tag $K:ty) => { $K };
    (@u8 $L:ident $T:ident) => {
        impl $crate::schema::Layout for $L {
            type T = $T;
            const MIN: usize = 1;
            fn put(v: &$T, out: &mut Vec<u8>) {
                out.push($L::tag(v));
                $L::put_body(v, out);
            }
            fn get(c: &mut $crate::cursor::Cur<'_>) -> Result<$T, $crate::cursor::Fault> {
                let tag = c.u8()?;
                $L::get_body(tag, c)
            }
        }
    };
    (@u8 $L:ident $T:ident $K:ty) => {};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq)]
    struct Entry {
        id: u32,
        name: String,
        at: [usize; 3],
        pairs: Vec<(usize, u64)>,
    }

    #[derive(Debug, PartialEq)]
    enum Shape {
        Empty,
        Point(f32),
        Box { lo: [usize; 3], hi: [usize; 3] },
    }

    crate::layout!(struct EntryL: Entry {
        id: U32,
        name: Str,
        at: Arr<Var, 3>,
        pairs: Seq<Pair<Var, V64>>,
    });

    crate::layout!(enum ShapeL: Shape, "shape tag" {
        0 => Empty,
        1 => Point(x: F32),
        7 => Box { lo: Arr<Var, 3>, hi: Arr<Var, 3> },
    });

    #[test]
    fn declared_layouts_roundtrip_byte_for_byte() {
        let e = Entry {
            id: 0xDEAD_BEEF,
            name: "nyx".into(),
            at: [1, 300, 0],
            pairs: vec![(2, u64::MAX), (0, 5)],
        };
        let bytes = encode::<EntryL>(&e);
        let mut want = 0xDEAD_BEEFu32.to_le_bytes().to_vec();
        want.extend_from_slice(&[3, b'n', b'y', b'x', 1, 0xAC, 0x02, 0, 2, 2]);
        want.extend_from_slice(&[0xFF; 9]);
        want.extend_from_slice(&[0x01, 0, 5]);
        assert_eq!(bytes, want);
        assert_eq!(decode::<EntryL>(&bytes), Ok(e));
        assert_eq!(EntryL::MIN, 4 + 1 + 3 + 1);
        for s in [
            Shape::Empty,
            Shape::Point(-0.5),
            Shape::Box {
                lo: [0, 1, 2],
                hi: [3, 4, 5],
            },
        ] {
            assert_eq!(decode::<ShapeL>(&encode::<ShapeL>(&s)), Ok(s));
        }
        assert_eq!(encode::<ShapeL>(&Shape::Point(1.0)), [1, 0, 0, 0x80, 0x3F]);
        assert_eq!(decode::<ShapeL>(&[2]), Err(Fault::Malformed("shape tag")));
        assert_eq!(decode::<ShapeL>(&[0, 0]), Err(Fault::Trailing));
    }

    #[test]
    fn primitives_refuse_what_they_cannot_hold() {
        assert_eq!(decode::<Flag>(&[2]), Err(Fault::Malformed("flag")));
        let mut big = Vec::new();
        write_uvarint(&mut big, 1 << 32);
        assert_eq!(decode::<V32>(&big), Err(Fault::Overflow));
        assert_eq!(decode::<V64>(&big), Ok(1 << 32));
        // Three entries of at least 5 bytes cannot fit in 10.
        let mut seq = vec![3];
        seq.extend_from_slice(&[0; 10]);
        assert_eq!(decode::<Seq<Pair<Var, U32>>>(&seq), Err(Fault::Count));
        assert_eq!(decode::<Seq<Pair<Var, U32>>>(&seq[..6]), Err(Fault::Count));
        seq[0] = 2;
        assert_eq!(
            decode::<Seq<Pair<Var, U32>>>(&seq),
            Ok(vec![(0, 0), (0, 0)])
        );
    }
}
