//! `ServiceMap`'s slot table against a `HashMap<TypeId, _>` reference
//! model: what the table was before it was a flat vector.

#![allow(clippy::disallowed_types)] // the reference model is the std map on purpose

use proptest::prelude::*;
use simcore::ServiceMap;
use std::any::TypeId;
use std::collections::HashMap;

/// Four distinct service types carrying one value each.
struct Svc<const N: usize>(u32);

#[derive(Debug, Clone, Copy)]
enum Op {
    Insert(u32),
    Take,
    Put,
    Get,
    Set(u32),
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        any::<u32>().prop_map(Op::Insert),
        Just(Op::Take),
        Just(Op::Put),
        Just(Op::Get),
        any::<u32>().prop_map(Op::Set),
    ]
}

/// Apply `op` for service type `Svc<N>` to both sides; `held` is the value
/// a `take` handed out and a later `put` returns.
fn step<const N: usize>(
    op: Op,
    map: &mut ServiceMap,
    model: &mut HashMap<TypeId, u32>,
    held: &mut Option<Box<Svc<N>>>,
) -> Result<(), TestCaseError> {
    let id = TypeId::of::<Svc<N>>();
    match op {
        Op::Insert(v) => {
            map.insert(Svc::<N>(v));
            model.insert(id, v);
        }
        Op::Take => {
            // Taking a taken (or never registered) service is `None`.
            let got = map.take::<Svc<N>>();
            prop_assert_eq!(got.as_ref().map(|s| s.0), model.remove(&id));
            if got.is_some() {
                *held = got;
            }
        }
        Op::Put => {
            if let Some(svc) = held.take() {
                model.insert(id, svc.0);
                map.put(svc);
            }
        }
        Op::Get => prop_assert_eq!(map.get::<Svc<N>>().map(|s| s.0), model.get(&id).copied()),
        Op::Set(v) => {
            let slot = map.get_mut::<Svc<N>>();
            prop_assert_eq!(slot.is_some(), model.contains_key(&id));
            if let Some(s) = slot {
                s.0 = v;
                model.insert(id, v);
            }
        }
    }
    prop_assert_eq!(map.contains::<Svc<N>>(), model.contains_key(&id));
    Ok(())
}

proptest! {
    #[test]
    fn slot_table_matches_the_hash_map_it_replaced(
        ops in proptest::collection::vec((0usize..4, arb_op()), 0..200),
    ) {
        let mut map = ServiceMap::new();
        let mut model = HashMap::new();
        let mut held = (None, None, None, None);
        for (ty, op) in ops {
            match ty {
                0 => step::<0>(op, &mut map, &mut model, &mut held.0)?,
                1 => step::<1>(op, &mut map, &mut model, &mut held.1)?,
                2 => step::<2>(op, &mut map, &mut model, &mut held.2)?,
                _ => step::<3>(op, &mut map, &mut model, &mut held.3)?,
            }
            prop_assert_eq!(map.len(), model.len());
            prop_assert_eq!(map.is_empty(), model.is_empty());
        }
    }
}
